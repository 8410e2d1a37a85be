// Tests for the binary .mpxs snapshot format (src/graph/snapshot.*,
// specified in docs/FORMATS.md): corpus-wide round trips through both the
// owned (load_snapshot) and zero-copy (map_snapshot) readers, byte-exact
// writer stability, golden files pinning the on-disk bytes, the header
// layout stated by the spec, and corruption rejection (truncation, bad
// magic, future version, bad section offsets, payload flips).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/golden.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

using mpx::testing::golden_path;
using mpx::testing::NamedGraph;
using mpx::testing::read_file_or_fail;
using mpx::testing::TempDir;

std::string read_file(const std::string& path) {
  return read_file_or_fail(path);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_same_graph(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                         b.offsets().begin()));
  EXPECT_TRUE(std::equal(a.targets().begin(), a.targets().end(),
                         b.targets().begin()));
}

/// The spec's checksum (FNV-1a 64) over the three section payloads, so
/// corruption tests can re-seal a deliberately broken payload and hit the
/// structural validators behind the checksum gate.
std::uint64_t spec_checksum(const std::string& file) {
  io::SnapshotHeader h{};
  std::memcpy(&h, file.data(), sizeof(h));
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&](std::uint64_t offset, std::uint64_t bytes) {
    for (std::uint64_t i = 0; i < bytes; ++i) {
      hash ^= static_cast<unsigned char>(file[offset + i]);
      hash *= 1099511628211ull;
    }
  };
  mix(h.offsets_offset, h.offsets_bytes);
  mix(h.targets_offset, h.targets_bytes);
  if (h.weights_bytes != 0) mix(h.weights_offset, h.weights_bytes);
  return hash;
}

void reseal_checksum(std::string& file) {
  const std::uint64_t checksum = spec_checksum(file);
  std::memcpy(file.data() + offsetof(io::SnapshotHeader, checksum), &checksum,
              sizeof(checksum));
}

TEST(Snapshot, RoundTripOwnedAcrossCorpus) {
  TempDir tmp("snapshot");
  for (const NamedGraph& ng : mpx::testing::small_graphs()) {
    SCOPED_TRACE(ng.name);
    const std::string path = tmp.file(ng.name + ".mpxs");
    io::save_snapshot(path, ng.graph);
    expect_same_graph(io::load_snapshot(path), ng.graph);
  }
}

TEST(Snapshot, RoundTripMappedAcrossCorpus) {
  TempDir tmp("snapshot");
  for (const NamedGraph& ng : mpx::testing::small_graphs()) {
    SCOPED_TRACE(ng.name);
    const std::string path = tmp.file(ng.name + ".mpxs");
    io::save_snapshot(path, ng.graph);
    const CsrGraph mapped = io::map_snapshot(path, /*verify_checksum=*/true);
    expect_same_graph(mapped, ng.graph);
  }
}

TEST(Snapshot, RoundTripDegenerateGraphs) {
  TempDir tmp("snapshot");
  for (const NamedGraph& ng : mpx::testing::degenerate_graphs()) {
    SCOPED_TRACE(ng.name);
    const std::string path = tmp.file(ng.name + ".mpxs");
    io::save_snapshot(path, ng.graph);
    expect_same_graph(io::load_snapshot(path), ng.graph);
    expect_same_graph(io::map_snapshot(path), ng.graph);
  }
}

TEST(Snapshot, RoundTripWeighted) {
  TempDir tmp("snapshot");
  const std::vector<WeightedEdge> edges = {
      {0, 1, 1.5}, {1, 2, 2.25}, {0, 3, 0.125}};
  const WeightedCsrGraph g =
      build_undirected_weighted(4, std::span<const WeightedEdge>(edges));
  const std::string path = tmp.file("weighted.mpxs");
  io::save_snapshot(path, g);

  const WeightedCsrGraph loaded = io::load_weighted_snapshot(path);
  expect_same_graph(loaded.topology(), g.topology());
  ASSERT_EQ(loaded.num_arcs(), g.num_arcs());
  EXPECT_TRUE(std::equal(loaded.weights().begin(), loaded.weights().end(),
                         g.weights().begin()));

  const WeightedCsrGraph mapped =
      io::map_weighted_snapshot(path, /*verify_checksum=*/true);
  expect_same_graph(mapped.topology(), g.topology());
  EXPECT_TRUE(std::equal(mapped.weights().begin(), mapped.weights().end(),
                         g.weights().begin()));
}

TEST(Snapshot, EdgelessWeightedGraphStaysWeighted) {
  // The weighted flag is explicit, not inferred from a non-empty weights
  // span, so weightedness survives the round trip even with m == 0.
  TempDir tmp("snapshot");
  for (const auto& [name, wg] :
       {std::pair<std::string, WeightedCsrGraph>{"empty",
                                                 WeightedCsrGraph{}},
        {"isolated", WeightedCsrGraph(build_undirected(3, {}), {})}}) {
    SCOPED_TRACE(name);
    const std::string path = tmp.file(name + ".mpxs");
    io::save_snapshot(path, wg);
    EXPECT_EQ(io::detect_graph_format(path),
              io::GraphFileFormat::kWeightedSnapshot);
    const WeightedCsrGraph loaded = io::load_weighted_snapshot(path);
    EXPECT_EQ(loaded.num_vertices(), wg.num_vertices());
    EXPECT_EQ(loaded.num_arcs(), 0u);
    const WeightedCsrGraph mapped = io::map_weighted_snapshot(path);
    EXPECT_EQ(mapped.num_vertices(), wg.num_vertices());
    EXPECT_THROW((void)io::load_snapshot(path), std::runtime_error);
  }
}

TEST(Snapshot, WriterIsByteStable) {
  // Same graph, two writes -> identical bytes; and save(load(save)) is
  // byte-identical, so the binary form is canonical like the text form.
  TempDir tmp("snapshot");
  const CsrGraph g = generators::grid2d(5, 4);
  const std::string a = tmp.file("a.mpxs");
  const std::string b = tmp.file("b.mpxs");
  io::save_snapshot(a, g);
  io::save_snapshot(b, g);
  EXPECT_EQ(read_file(a), read_file(b));
  const std::string c = tmp.file("c.mpxs");
  io::save_snapshot(c, io::load_snapshot(a));
  EXPECT_EQ(read_file(a), read_file(c));
}

TEST(Snapshot, MappedGraphIsZeroCopyView) {
  TempDir tmp("snapshot");
  const CsrGraph g = generators::grid2d(4, 4);
  const std::string path = tmp.file("view.mpxs");
  io::save_snapshot(path, g);

  const CsrGraph mapped = io::map_snapshot(path);
  EXPECT_FALSE(mapped.owns_storage());
  EXPECT_TRUE(io::load_snapshot(path).owns_storage());
  EXPECT_TRUE(g.owns_storage());

  // Copies of a view share the mapping and alias the same bytes.
  const CsrGraph copy = mapped;  // NOLINT(performance-unnecessary-copy)
  EXPECT_FALSE(copy.owns_storage());
  EXPECT_EQ(copy.targets().data(), mapped.targets().data());

  // Copying an owning graph stays a deep copy.
  const CsrGraph deep = g;  // NOLINT(performance-unnecessary-copy)
  EXPECT_TRUE(deep.owns_storage());
  EXPECT_NE(deep.targets().data(), g.targets().data());
}

TEST(Snapshot, MappedGraphOutlivesMoveAndCopyChains) {
  // The mapping keepalive must survive arbitrary move/copy shuffles.
  TempDir tmp("snapshot");
  const CsrGraph g = generators::rmat(8, 4.0, 3);
  const std::string path = tmp.file("chain.mpxs");
  io::save_snapshot(path, g);

  CsrGraph survivor;
  {
    CsrGraph mapped = io::map_snapshot(path);
    CsrGraph moved = std::move(mapped);
    const CsrGraph copied = moved;
    survivor = copied;
  }
  expect_same_graph(survivor, g);
}

TEST(Snapshot, HeaderLayoutMatchesSpec) {
  // docs/FORMATS.md "Header layout" states these byte offsets; the
  // static_asserts in graph/snapshot.hpp pin the struct, this test pins
  // the actual file bytes.
  TempDir tmp("snapshot");
  const CsrGraph g = generators::path(4);  // the spec's worked example
  const std::string path = tmp.file("p4.mpxs");
  io::save_snapshot(path, g);
  const std::string file = read_file(path);
  ASSERT_GE(file.size(), io::kSnapshotHeaderBytes);

  EXPECT_EQ(std::memcmp(file.data(), "MPXSNAP\0", 8), 0);
  std::uint32_t version = 0;
  std::memcpy(&version, file.data() + 8, 4);
  EXPECT_EQ(version, io::kSnapshotVersion);
  std::uint32_t flags = 0;
  std::memcpy(&flags, file.data() + 12, 4);
  EXPECT_EQ(flags, io::kSnapshotFlagUndirected);
  std::uint64_t n = 0;
  std::memcpy(&n, file.data() + 16, 8);
  EXPECT_EQ(n, 4u);
  std::uint64_t arcs = 0;
  std::memcpy(&arcs, file.data() + 24, 8);
  EXPECT_EQ(arcs, 6u);
  std::uint64_t offsets_offset = 0;
  std::memcpy(&offsets_offset, file.data() + 32, 8);
  EXPECT_EQ(offsets_offset, 128u);
  std::uint64_t offsets_bytes = 0;
  std::memcpy(&offsets_bytes, file.data() + 40, 8);
  EXPECT_EQ(offsets_bytes, (4u + 1) * 8);
  std::uint64_t targets_offset = 0;
  std::memcpy(&targets_offset, file.data() + 48, 8);
  EXPECT_EQ(targets_offset, 192u);  // align64(128 + 40)
  // Sections are 64-byte aligned and the file ends on an aligned boundary.
  EXPECT_EQ(file.size() % io::kSnapshotSectionAlign, 0u);
  EXPECT_EQ(spec_checksum(file),
            [&] {
              std::uint64_t checksum = 0;
              std::memcpy(&checksum, file.data() + 80, 8);
              return checksum;
            }());
}

TEST(Snapshot, GoldenFileMatchesWriter) {
  // Pins the on-disk binary format. If this fails because the format
  // deliberately changed, bump the version, update docs/FORMATS.md, and
  // regenerate with: build/regen_golden (see tests/golden/).
  const CsrGraph g = generators::grid2d(3, 3);
  TempDir tmp("snapshot");
  const std::string path = tmp.file("grid_3x3.mpxs");
  io::save_snapshot(path, g);
  EXPECT_EQ(read_file(path), read_file_or_fail(golden_path("grid_3x3.mpxs")));
}

TEST(Snapshot, GoldenFileParsesBackToSameGraph) {
  const CsrGraph g = generators::grid2d(3, 3);
  expect_same_graph(io::load_snapshot(golden_path("grid_3x3.mpxs")), g);
  expect_same_graph(io::map_snapshot(golden_path("grid_3x3.mpxs")), g);
}

TEST(Snapshot, WeightedGoldenFileMatchesWriter) {
  const WeightedCsrGraph g = mpx::testing::grid3x3_weighted_reference();
  TempDir tmp("snapshot");
  const std::string path = tmp.file("grid_3x3_weighted.mpxs");
  io::save_snapshot(path, g);
  EXPECT_EQ(read_file(path),
            read_file_or_fail(golden_path("grid_3x3_weighted.mpxs")));
  const WeightedCsrGraph back =
      io::load_weighted_snapshot(golden_path("grid_3x3_weighted.mpxs"));
  expect_same_graph(back.topology(), g.topology());
  EXPECT_TRUE(std::equal(back.weights().begin(), back.weights().end(),
                         g.weights().begin()));
}

TEST(Snapshot, InfoReportsHeaderFields) {
  TempDir tmp("snapshot");
  const CsrGraph g = generators::grid2d(3, 3);
  const std::string path = tmp.file("info.mpxs");
  io::save_snapshot(path, g);
  const io::SnapshotInfo info = io::read_snapshot_info(path);
  EXPECT_EQ(info.version, io::kSnapshotVersion);
  EXPECT_EQ(info.num_vertices, 9u);
  EXPECT_EQ(info.num_arcs, g.num_arcs());
  EXPECT_FALSE(info.weighted());
  EXPECT_EQ(info.file_bytes, read_file(path).size());
}

TEST(Snapshot, VerifyAcceptsHealthyFiles) {
  TempDir tmp("snapshot");
  const CsrGraph g = generators::rmat(8, 4.0, 1);
  const std::string path = tmp.file("ok.mpxs");
  io::save_snapshot(path, g);
  EXPECT_NO_THROW((void)io::verify_snapshot(path));
}

// ---------------------------------------------------------------------------
// Corruption rejection: every reader must throw std::runtime_error, never
// crash, on the failure classes the spec enumerates.
// ---------------------------------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const CsrGraph g = generators::grid2d(3, 3);
    path_ = tmp_.file("corrupt.mpxs");
    io::save_snapshot(path_, g);
    good_ = read_file(path_);
  }

  /// Writes `bytes` to the test path and expects every reader to reject it.
  void expect_rejected(const std::string& bytes, const char* why) {
    SCOPED_TRACE(why);
    write_file(path_, bytes);
    EXPECT_THROW((void)io::load_snapshot(path_), std::runtime_error);
    EXPECT_THROW((void)io::map_snapshot(path_), std::runtime_error);
    EXPECT_THROW((void)io::verify_snapshot(path_), std::runtime_error);
  }

  TempDir tmp_{"snapshot-corrupt"};
  std::string path_;
  std::string good_;
};

TEST_F(SnapshotCorruption, RejectsTruncation) {
  // Every truncation point: inside the header, at the header boundary,
  // inside each section.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, std::size_t{64}, std::size_t{127},
        std::size_t{128}, std::size_t{150}, good_.size() - 64,
        good_.size() - 1}) {
    expect_rejected(good_.substr(0, keep),
                    ("truncated to " + std::to_string(keep)).c_str());
  }
}

TEST_F(SnapshotCorruption, RejectsBadMagic) {
  std::string bad = good_;
  bad[0] = 'X';
  expect_rejected(bad, "first magic byte flipped");
}

TEST_F(SnapshotCorruption, RejectsFutureVersion) {
  std::string bad = good_;
  bad[8] = 3;  // version field, docs/FORMATS.md offset 8; 2 now exists
  expect_rejected(bad, "version 3");
}

TEST_F(SnapshotCorruption, RejectsVersionOneBytesRelabeledAsTwo) {
  // A v1 body whose version field claims 2 must fail the v2 header
  // validation (checksummed 192-byte header), not get misparsed.
  std::string bad = good_;
  bad[8] = 2;
  expect_rejected(bad, "v1 bytes relabeled version 2");
}

TEST_F(SnapshotCorruption, RejectsUnknownFlags) {
  std::string bad = good_;
  bad[12] = static_cast<char>(bad[12] | 0x80);
  expect_rejected(bad, "unknown flag bit");
}

TEST_F(SnapshotCorruption, RejectsMissingUndirectedFlag) {
  std::string bad = good_;
  bad[12] = 0;  // clears kSnapshotFlagUndirected
  expect_rejected(bad, "undirected flag cleared");
}

TEST_F(SnapshotCorruption, RejectsNonzeroReservedBytes) {
  std::string bad = good_;
  bad[100] = 1;  // inside reserved[40] at offset 88
  expect_rejected(bad, "reserved byte set");
}

TEST_F(SnapshotCorruption, RejectsMisalignedSectionOffset) {
  std::string bad = good_;
  std::uint64_t off = 0;
  std::memcpy(&off, bad.data() + 48, 8);  // targets_offset
  off += 4;                               // still in bounds, not 64-aligned
  std::memcpy(bad.data() + 48, &off, 8);
  expect_rejected(bad, "targets offset misaligned");
}

TEST_F(SnapshotCorruption, RejectsOutOfBoundsSectionOffset) {
  std::string bad = good_;
  const std::uint64_t off = 1u << 20;  // way past EOF, but 64-aligned
  std::memcpy(bad.data() + 32, &off, 8);  // offsets_offset
  expect_rejected(bad, "offsets section out of bounds");
}

TEST_F(SnapshotCorruption, RejectsSectionOverlappingHeader) {
  std::string bad = good_;
  const std::uint64_t off = 64;  // aligned but inside the 128-byte header
  std::memcpy(bad.data() + 32, &off, 8);
  reseal_checksum(bad);  // keep the checksum gate from masking the check
  expect_rejected(bad, "offsets section overlaps header");
}

TEST_F(SnapshotCorruption, RejectsAliasedSections) {
  // Overlapping sections (targets aliasing offsets) violate the canonical
  // offset formulas even with a resealed checksum.
  std::string bad = good_;
  std::uint64_t off = 0;
  std::memcpy(&off, bad.data() + 32, 8);  // offsets_offset (aligned)
  std::memcpy(bad.data() + 48, &off, 8);  // targets_offset := offsets_offset
  reseal_checksum(bad);
  expect_rejected(bad, "targets section aliases the offsets section");
}

TEST_F(SnapshotCorruption, RejectsInconsistentSectionSize) {
  std::string bad = good_;
  std::uint64_t bytes = 0;
  std::memcpy(&bytes, bad.data() + 40, 8);  // offsets_bytes
  bytes -= 8;
  std::memcpy(bad.data() + 40, &bytes, 8);
  expect_rejected(bad, "offsets_bytes disagrees with num_vertices");
}

TEST_F(SnapshotCorruption, RejectsPayloadFlip) {
  std::string bad = good_;
  bad[bad.size() - 64] = static_cast<char>(bad[bad.size() - 64] ^ 0x01);
  write_file(path_, bad);
  // Checksummed paths reject it...
  EXPECT_THROW((void)io::load_snapshot(path_), std::runtime_error);
  EXPECT_THROW((void)io::verify_snapshot(path_), std::runtime_error);
  EXPECT_THROW((void)io::map_snapshot(path_, /*verify_checksum=*/true),
               std::runtime_error);
}

TEST_F(SnapshotCorruption, RejectsStructurallyInvalidPayload) {
  // An in-bounds but non-CSR payload: make offsets[1] > offsets[n] and
  // re-seal the checksum, so only the structural validator can catch it.
  std::string bad = good_;
  std::uint64_t off = 0;
  std::memcpy(&off, bad.data() + 32, 8);  // offsets section start
  const std::uint64_t huge = good_.size();  // > num_arcs, breaks monotonicity
  std::memcpy(bad.data() + off + 8, &huge, 8);
  reseal_checksum(bad);
  expect_rejected(bad, "non-monotone offsets behind a valid checksum");
}

TEST_F(SnapshotCorruption, RejectsOutOfRangeTargetBehindValidChecksum) {
  std::string bad = good_;
  io::SnapshotHeader h{};
  std::memcpy(&h, bad.data(), sizeof(h));
  const std::uint32_t out_of_range = 0x7FFFFFFF;
  std::memcpy(bad.data() + h.targets_offset, &out_of_range, 4);
  reseal_checksum(bad);
  expect_rejected(bad, "arc target >= n behind a valid checksum");
}

TEST_F(SnapshotCorruption, RejectsWeightednessMismatch) {
  write_file(path_, good_);  // healthy unweighted file
  EXPECT_THROW((void)io::load_weighted_snapshot(path_), std::runtime_error);
  EXPECT_THROW((void)io::map_weighted_snapshot(path_), std::runtime_error);

  const WeightedCsrGraph wg = mpx::testing::grid3x3_weighted_reference();
  io::save_snapshot(path_, wg);
  EXPECT_THROW((void)io::load_snapshot(path_), std::runtime_error);
  EXPECT_THROW((void)io::map_snapshot(path_), std::runtime_error);

  // The same rejections for both version-2 tiers.
  for (const io::SnapshotTier tier :
       {io::SnapshotTier::kHot, io::SnapshotTier::kCold}) {
    SCOPED_TRACE(tier == io::SnapshotTier::kHot ? "v2 hot" : "v2 cold");
    io::SnapshotWriteOptions v2;
    v2.version = io::kSnapshotVersion2;
    v2.tier = tier;
    io::save_snapshot(path_, generators::grid2d(3, 3), v2);
    EXPECT_THROW((void)io::load_weighted_snapshot(path_), std::runtime_error);
    EXPECT_THROW((void)io::map_weighted_snapshot(path_), std::runtime_error);

    io::save_snapshot(path_, wg, v2);
    EXPECT_THROW((void)io::load_snapshot(path_), std::runtime_error);
    EXPECT_THROW((void)io::map_snapshot(path_), std::runtime_error);
  }
}

TEST_F(SnapshotCorruption, RejectsNonPositiveWeightBehindValidChecksum) {
  const WeightedCsrGraph wg = mpx::testing::grid3x3_weighted_reference();
  io::save_snapshot(path_, wg);
  std::string bad = read_file(path_);
  io::SnapshotHeader h{};
  std::memcpy(&h, bad.data(), sizeof(h));
  const double negative = -1.0;
  std::memcpy(bad.data() + h.weights_offset, &negative, 8);
  reseal_checksum(bad);
  write_file(path_, bad);
  EXPECT_THROW((void)io::load_weighted_snapshot(path_), std::runtime_error);
  EXPECT_THROW((void)io::map_weighted_snapshot(path_), std::runtime_error);
}

}  // namespace
}  // namespace mpx
