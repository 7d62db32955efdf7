// Wire protocol of the shlcpd certification service (schema shlcp.svc.v1).
//
// Transport framing is length-prefixed JSONL: each frame is
//
//   <decimal byte length> '\n' <body> '\n'
//
// where <body> is exactly that many bytes of one single-line JSON
// document. The prefix makes framing independent of the body's content
// (a body may legally contain escaped newlines), and the trailing
// newline keeps captured streams greppable/JSONL-toolable. FrameReader
// is the incremental decoder: it accepts bytes in arbitrary splits
// (tests/service_proto_test.cpp feeds it byte by byte) and rejects
// malformed headers and frames above a byte cap with a diagnostic
// instead of allocating unboundedly.
//
// Requests and responses are plain Json objects:
//
//   request:   {"id": <any>, "op": <string>, "params": <object>,
//               "deadline_ms": <uint, optional>,
//               "check": <string, optional>}
//   response:  {"schema": "shlcp.svc.v1", "id": <echoed>, "ok": true,
//               "cached": <bool>, "digest": <string>, "result": {...}}
//          or  {"schema": "shlcp.svc.v1", "id": <echoed>, "ok": false,
//               "error": {"code": ..., "message": ..., "repro": ...,
//                         "retry_after_ms": <uint, optional>}}
//
// The "repro" member carries the lcp/audit-style single-line repro
// string when the failure concerns a concrete distributed run.
//
// End-to-end integrity (the resilience layer, DESIGN.md §14): a
// request's optional "check" is fnv1a_hex(artifact_key(op, params)).
// The dispatcher recomputes it from the params it actually parsed and
// refuses a mismatch with the "integrity" error -- so a transport that
// flips a byte inside a well-formed request gets a retriable refusal,
// never a wrong answer under the client's original question. The
// symmetric "digest" member of an ok response is fnv1a_hex of the
// dumped "result" document; clients verify it and treat a mismatch as
// a transport failure (reconnect + retry). Error responses carry no
// digest -- they are advisory, and a corrupted one at worst triggers a
// spurious retry. "retry_after_ms" is the server's backpressure hint on
// "overloaded" refusals.
//
// Stateful sessions (DESIGN.md §17): the session_open / session_step /
// session_close ops carry a *client-chosen* session id in
// params["session"], present on every message of the session. The id is
// the affinity key -- the router hashes it (not the full params) so all
// steps of one session land on the backend that holds its state -- and
// the client's correlation handle. Session ids are 1..64 bytes of
// [A-Za-z0-9._:-], with one reserved namespace: ids matching c<digits>
// (e.g. "c0", "c17") are REJECTED at session_open, because Client
// stamps its per-attempt wire ids from exactly that namespace
// ("c%llu", client.cpp) to detect late responses of abandoned retry
// attempts. A session id aliasing a retry id could make a stale
// response for attempt N look like a fresh answer about session "cN";
// keeping the namespaces disjoint makes that aliasing impossible by
// construction. session_id_error() is the single validator.
//
// This header also hosts the canonical JSON form used for cache keying
// (object keys sorted recursively, compact dump), the response writer
// that splices stored result bytes into an ok envelope without
// re-parsing them, and the codecs between the library's value types
// (Graph, Instance, Labeling) and their wire JSON, so the dispatcher,
// the cache, the load generator, and the bench all agree byte-for-byte
// on what a request means.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "lcp/instance.h"
#include "util/json.h"

namespace shlcp::svc {

inline constexpr const char* kWireSchema = "shlcp.svc.v1";

/// Default cap on one frame's body; oversized frames are a protocol
/// error (reported, never buffered).
inline constexpr std::size_t kDefaultMaxFrameBytes = 4u << 20;

/// Encodes one frame: "<len>\n<body>\n".
std::string encode_frame(std::string_view body);

/// Incremental frame decoder. Feed bytes as they arrive; next() yields
/// complete bodies in order. A malformed header or an oversized frame
/// puts the reader into a sticky failed state (the stream offset is
/// unrecoverable once framing is lost).
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::string_view bytes);

  enum class Next { kFrame, kNeedMore, kError };

  /// Extracts the next complete frame body into *frame. On kError,
  /// *error describes the protocol violation; the reader stays failed.
  Next next(std::string* frame, std::string* error);

  [[nodiscard]] bool failed() const { return failed_; }

  /// Bytes currently buffered (tests assert the cap bounds this).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  Next fail(std::string* error, std::string message);

  std::size_t max_frame_bytes_;
  std::string buf_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string fail_message_;
};

/// The canonicalized request payload the artifact cache keys on:
/// Json::canonical_dump, i.e. object keys sorted recursively (arrays
/// keep their order -- element order is semantic), compact dump.
std::string canonical_dump(const Json& j);

/// Graph <-> {"n": int, "edges": [[u, v], ...]} (edges sorted, as
/// Graph::edges()).
Json graph_to_json(const Graph& g);
Graph graph_from_json(const Json& j);

/// Labeling <-> [[bits, f1, f2, ...], ...] (one entry per node).
Json labeling_to_json(const Labeling& labels);
Labeling labeling_from_json(const Json& j, int num_nodes);

/// Instance <-> {"graph": ..., "ports": [[...], ...] (optional,
/// canonical when absent), "ids": [...] (optional, consecutive when
/// absent), "id_bound": int (optional), "labels": ... (optional,
/// empty when absent)}.
Json instance_to_json(const Instance& inst);
Instance instance_from_json(const Json& j);

/// A parsed, validated request envelope.
struct Request {
  Json id;
  std::string op;
  Json params;  // always an object (default empty)
  std::uint64_t deadline_ms = 0;  // 0 = none
  std::string check;  // expected fnv1a_hex(artifact_key); "" = unchecked
};

/// Validates the envelope shape; throws CheckError naming the offending
/// member on anything malformed (unknown members are rejected too, so
/// client typos fail loudly instead of being ignored).
Request parse_request(const Json& j);

/// Response builders. `id` is echoed verbatim (null when the request
/// was too malformed to carry one). `digest` is fnv1a_hex of the dumped
/// result document ("" omits the member -- pre-resilience responses).
/// `retry_after_ms` >= 0 adds the backpressure hint to the error object.
Json ok_response(const Json& id, Json result, bool cached,
                 std::string_view digest = "");
/// ok_response(id, Json::parse(result), cached, digest).dump(), without
/// the parse: `result` is spliced in verbatim, so it must be a compact
/// Json::dump. This is how the service answers, hit or miss -- the
/// result bytes it stores are the bytes it sends.
std::string ok_response_text(const Json& id, std::string_view result,
                             bool cached, std::string_view digest);
Json error_response(const Json& id, std::string_view code,
                    std::string_view message, std::string_view repro = "",
                    std::int64_t retry_after_ms = -1);

/// Validates a client-chosen session id: 1..64 bytes of [A-Za-z0-9._:-]
/// and not inside the reserved retry-alias namespace c<digits> (see the
/// header comment). Returns "" when valid, else the reason.
std::string session_id_error(std::string_view id);

}  // namespace shlcp::svc
