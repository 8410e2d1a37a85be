// Tests for the atomic file writers (support/atomic_file.hpp) behind
// io::save_decomposition, io::save_snapshot, io::save_edge_list and
// obs::TraceRecorder::write_chrome_trace: a writer SIGKILLed while
// overwriting a file leaves the old file loadable, and a successful save
// leaves no temp file behind.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/decomposition_io.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"
#include "obs/trace.hpp"
#include "support/atomic_file.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

namespace fs = std::filesystem;
using mpx::testing::TempDir;

/// Every file name in `dir`.
std::vector<std::string> list_dir(const fs::path& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  return names;
}

/// True once some write toward `path` is under way: a sibling file with
/// bytes in it, or `path` itself no longer `old_size` bytes long.
bool write_in_progress(const fs::path& path, std::uintmax_t old_size) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (!ec && size != old_size) return true;
  for (const fs::directory_entry& e :
       fs::directory_iterator(path.parent_path(), ec)) {
    if (e.path() != path && fs::file_size(e.path(), ec) > 0 && !ec) {
      return true;
    }
  }
  return false;
}

enum class Outcome { kKilledMidWrite, kFinishedFirst };

/// Fork a child that runs `save` over the existing file `path`, and
/// SIGKILL it as soon as its write is under way. kFinishedFirst when the
/// child completed before the kill landed.
Outcome kill_writer_mid_write(const fs::path& path,
                              const std::function<void()>& save) {
  const std::uintmax_t old_size = fs::file_size(path);
  const pid_t pid = ::fork();
  if (pid == 0) {
    save();
    ::_exit(0);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int status = 0;
  while (!write_in_progress(path, old_size)) {
    if (::waitpid(pid, &status, WNOHANG) == pid ||
        std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return Outcome::kFinishedFirst;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // The write has just begun and takes far longer than a kill takes to
  // land, so a killed child died mid-write.
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL
             ? Outcome::kKilledMidWrite
             : Outcome::kFinishedFirst;
}

/// Run kill_writer_mid_write until one kill lands mid-write, calling
/// `check_old` after it; a few tries absorb a child that outruns the poll.
void expect_old_content_survives_kill(const fs::path& path,
                                      const std::function<void()>& save,
                                      const std::function<void()>& check_old) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    if (kill_writer_mid_write(path, save) == Outcome::kKilledMidWrite) {
      check_old();
      return;
    }
  }
  FAIL() << "the writer finished before any kill landed";
}

/// A decomposition of `n` singleton clusters: its text form is large
/// (about n lines), so writing it takes long enough to interrupt.
Decomposition singletons(vertex_t n) {
  std::vector<vertex_t> owner(n);
  std::iota(owner.begin(), owner.end(), vertex_t{0});
  const std::vector<std::uint32_t> dist(n, 0);
  return Decomposition(owner, dist);
}

TEST(AtomicWrite, KilledDecompositionWriterLeavesTheOldFile) {
  TempDir tmp("atomic");
  const std::string path = tmp.file("result.dec");
  const Decomposition old_dec = singletons(16);
  io::save_decomposition(path, old_dec);
  const Decomposition big = singletons(1u << 21);

  expect_old_content_survives_kill(
      path, [&] { io::save_decomposition(path, big); },
      [&] {
        const Decomposition loaded = io::load_decomposition(path);
        ASSERT_EQ(loaded.num_vertices(), old_dec.num_vertices());
        EXPECT_TRUE(std::ranges::equal(loaded.centers(), old_dec.centers()));
      });
}

TEST(AtomicWrite, KilledSnapshotWriterLeavesTheOldFile) {
  TempDir tmp("atomic");
  const std::string path = tmp.file("graph.mpxs");
  const CsrGraph old_graph = generators::grid2d(5, 5);
  io::save_snapshot(path, old_graph);
  const CsrGraph big = generators::grid2d(1500, 1500);

  expect_old_content_survives_kill(
      path, [&] { io::save_snapshot(path, big); },
      [&] {
        const CsrGraph loaded = io::load_snapshot(path);
        ASSERT_EQ(loaded.num_vertices(), old_graph.num_vertices());
        EXPECT_TRUE(std::ranges::equal(loaded.targets(), old_graph.targets()));
      });
}

TEST(AtomicWrite, KilledEdgeListWriterLeavesTheOldFile) {
  TempDir tmp("atomic");
  const std::string path = tmp.file("graph.edges");
  const CsrGraph old_graph = generators::grid2d(5, 5);
  io::save_edge_list(path, old_graph);
  const CsrGraph big = generators::grid2d(1000, 1000);

  expect_old_content_survives_kill(
      path, [&] { io::save_edge_list(path, big); },
      [&] {
        const CsrGraph loaded = io::load_edge_list(path);
        ASSERT_EQ(loaded.num_vertices(), old_graph.num_vertices());
        EXPECT_TRUE(std::ranges::equal(loaded.targets(), old_graph.targets()));
      });
}

TEST(AtomicWrite, SuccessfulSavesLeaveNoTempFile) {
  TempDir tmp("atomic");
  const std::string dec_path = tmp.file("result.dec");
  io::save_decomposition(dec_path, singletons(10));
  io::save_decomposition(dec_path, singletons(12));  // overwrite
  const std::string snap_path = tmp.file("graph.mpxs");
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  io::save_snapshot(snap_path, generators::grid2d(6, 6));
  io::save_snapshot(snap_path, generators::grid2d(7, 7), cold);  // overwrite
  const std::string edges_path = tmp.file("graph.edges");
  io::save_edge_list(edges_path, generators::grid2d(4, 4));
  io::save_edge_list(edges_path, generators::grid2d(5, 5));  // overwrite
  const std::string trace_path = tmp.file("trace.json");
  const obs::TraceRecorder recorder;
  EXPECT_TRUE(recorder.write_chrome_trace(trace_path));
  EXPECT_TRUE(recorder.write_chrome_trace(trace_path));  // overwrite

  std::vector<std::string> names = list_dir(tmp.path());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"graph.edges", "graph.mpxs",
                                             "result.dec", "trace.json"}));
  EXPECT_EQ(io::load_decomposition(dec_path).num_vertices(), 12u);
  EXPECT_EQ(io::load_snapshot(snap_path).num_vertices(), 49u);
  EXPECT_EQ(io::load_edge_list(edges_path).num_vertices(), 25u);
}

TEST(AtomicWrite, FailedWriteRemovesItsTempFileAndKeepsTheOld) {
  TempDir tmp("atomic");
  const std::string path = tmp.file("data.txt");
  write_file_atomically(path, [](std::ostream& out) { out << "old"; });
  EXPECT_THROW(write_file_atomically(path,
                                     [](std::ostream& out) {
                                       out << "partial";
                                       throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  EXPECT_EQ(list_dir(tmp.path()), std::vector<std::string>{"data.txt"});
  EXPECT_EQ(fs::file_size(path), 3u);
  // A directory that does not exist cannot take the temp file.
  EXPECT_THROW(write_file_atomically(tmp.file("missing/data.txt"),
                                     [](std::ostream& out) { out << "x"; }),
               std::runtime_error);
}

}  // namespace
}  // namespace mpx
