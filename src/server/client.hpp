/// \file
/// \brief DecompClient: the client side of the decomposition service.
///
/// A thin, synchronous library over the wire protocol (protocol.hpp):
/// connect to a `DecompServer` over its Unix-domain socket or loopback
/// TCP port, then call the same query surface a `SharedResultStore` entry
/// answers in process — `run`, `cluster_of` / `owner_of` /
/// `estimate_distance`, `boundary_arcs`, `batch` — plus `info` and
/// `shutdown_server`. One client owns one connection. The server
/// dispatches each request to any idle worker and serves results from
/// one fleet-wide store, so connections are interchangeable for cache
/// warmth. Not thread-safe: one client per thread.
///
/// The `*_pipelined` calls exploit the protocol's pipelining guarantee
/// (docs/PROTOCOL.md): all requests are written back-to-back before any
/// response is read, collapsing N round trips into one. Responses come
/// back in request order. Keep a pipelined batch's response volume
/// bounded (well under the server's 4 MiB per-connection response
/// window) — a client that writes unboundedly without reading can
/// deadlock against server-side flow control and will eventually be
/// dropped by the server's write timeout.
///
/// Server-side rejections (kErrorResponse frames) surface as
/// `ServerError` carrying the protocol error code; transport garbage
/// surfaces as `ProtocolError`; a vanished server as
/// `std::runtime_error`.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace mpx::server {

/// A well-formed kErrorResponse from the server: the request was framed
/// correctly but declined.
class ServerError : public std::runtime_error {
 public:
  ServerError(ErrorCode code, const std::string& message)
      : std::runtime_error("mpx::server error " +
                           std::to_string(static_cast<int>(code)) + ": " +
                           message),
        code_(code) {}

  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

class DecompClient {
 public:
  /// Connect to a Unix-domain socket. Throws std::runtime_error with a
  /// `path: errno-message` string when the path is unavailable.
  [[nodiscard]] static DecompClient connect_unix(
      const std::string& socket_path);
  /// Connect to a loopback TCP server.
  [[nodiscard]] static DecompClient connect_tcp(const std::string& host,
                                                std::uint16_t port);

  DecompClient(DecompClient&&) noexcept;
  DecompClient& operator=(DecompClient&&) noexcept;
  DecompClient(const DecompClient&) = delete;
  DecompClient& operator=(const DecompClient&) = delete;
  ~DecompClient();  ///< closes the connection

  /// Graph/server metadata.
  [[nodiscard]] InfoResponse info();

  /// The server's full observability snapshot: lifetime counters,
  /// result-store / block-cache occupancy, and every metrics-registry
  /// section (latency histograms included). One kStatsRequest round trip.
  [[nodiscard]] StatsResponse server_stats();

  /// Run (or fetch from the server's shared result store) one
  /// decomposition. `include_arrays` requests the full owner/settle
  /// arrays.
  [[nodiscard]] RunResponse run(const DecompositionRequest& request,
                                bool include_arrays = false);

  /// Pipelined run(): send every request back-to-back, then read the
  /// responses, which arrive in request order. Throws ServerError on the
  /// first error response (responses before it are lost to the caller).
  [[nodiscard]] std::vector<RunResponse> run_pipelined(
      std::span<const DecompositionRequest> requests,
      bool include_arrays = false);

  /// Compact cluster id of v.
  [[nodiscard]] cluster_t cluster_of(vertex_t v,
                                     const DecompositionRequest& request);
  /// Center vertex that claimed v.
  [[nodiscard]] vertex_t owner_of(vertex_t v,
                                  const DecompositionRequest& request);
  /// Distance-oracle estimate of dist(u, v); kInfDist across components.
  [[nodiscard]] std::uint32_t estimate_distance(
      vertex_t u, vertex_t v, const DecompositionRequest& request);

  /// Pipelined cluster_of(): one write of every query, one in-order read
  /// of every answer. The workhorse for high-throughput point lookups.
  [[nodiscard]] std::vector<cluster_t> cluster_of_pipelined(
      std::span<const vertex_t> vertices, const DecompositionRequest& request);

  /// The cut-edge list, (u, v)-ordered with u < v.
  [[nodiscard]] std::vector<Edge> boundary_arcs(
      const DecompositionRequest& request);

  /// Multi-beta batch run (SharedResultStore::acquire_batch semantics on
  /// the server).
  [[nodiscard]] BatchResponse batch(const DecompositionRequest& base,
                                    std::span<const double> betas);

  /// Ask the server to shut down gracefully; returns once acknowledged.
  void shutdown_server();

 private:
  explicit DecompClient(int fd);

  /// Send one framed request, read one framed response. Throws
  /// ServerError on kErrorResponse, ProtocolError when the response type
  /// is not `expect`, std::runtime_error on transport failure.
  std::vector<std::uint8_t> round_trip(std::span<const std::uint8_t> frame,
                                       MessageType expect);
  /// Write raw frame bytes (several frames back-to-back for pipelining).
  void send_frames(std::span<const std::uint8_t> bytes);
  /// Read one framed response; same error contract as round_trip.
  std::vector<std::uint8_t> read_response(MessageType expect);
  /// Round trip of one point query on the reusable hot-path buffers.
  std::uint64_t query_round_trip(const DecompositionRequest& request,
                                 QueryKind kind, vertex_t u, vertex_t v);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mpx::server
