#include "service/proto.h"

#include <algorithm>

#include "util/check.h"
#include "util/format.h"

namespace shlcp::svc {

std::string encode_frame(std::string_view body) {
  std::string out = std::to_string(body.size());
  out.push_back('\n');
  out.append(body);
  out.push_back('\n');
  return out;
}

void FrameReader::feed(std::string_view bytes) {
  if (failed_) {
    return;  // stream is unrecoverable; drop everything
  }
  // Compact lazily so long sessions do not grow the buffer forever.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64u << 10) && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

FrameReader::Next FrameReader::fail(std::string* error, std::string message) {
  failed_ = true;
  fail_message_ = std::move(message);
  if (error != nullptr) {
    *error = fail_message_;
  }
  return Next::kError;
}

FrameReader::Next FrameReader::next(std::string* frame, std::string* error) {
  if (failed_) {
    if (error != nullptr) {
      *error = fail_message_;
    }
    return Next::kError;
  }
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) {
    // 20 digits exceed any uint64; a longer digit run can never become a
    // valid header, so reject early instead of buffering a flood.
    if (buf_.size() - pos_ > 20) {
      return fail(error, "frame header: no newline within 20 bytes");
    }
    return Next::kNeedMore;
  }
  const std::string_view header(buf_.data() + pos_, nl - pos_);
  if (header.empty() ||
      !std::all_of(header.begin(), header.end(),
                   [](char c) { return c >= '0' && c <= '9'; }) ||
      header.size() > 19) {
    return fail(error, format("frame header: '%s' is not a decimal length",
                              std::string(header).c_str()));
  }
  std::size_t len = 0;
  for (const char c : header) {
    len = len * 10 + static_cast<std::size_t>(c - '0');
  }
  if (len > max_frame_bytes_) {
    return fail(error, format("frame of %zu bytes exceeds the %zu-byte cap",
                              len, max_frame_bytes_));
  }
  // Need the body plus its trailing newline.
  if (buf_.size() - (nl + 1) < len + 1) {
    return Next::kNeedMore;
  }
  if (buf_[nl + 1 + len] != '\n') {
    return fail(error, "frame body not terminated by newline");
  }
  frame->assign(buf_, nl + 1, len);
  pos_ = nl + 1 + len + 1;
  return Next::kFrame;
}

std::string canonical_dump(const Json& j) { return j.canonical_dump(); }

Json graph_to_json(const Graph& g) {
  Json j = Json::object();
  j["n"] = g.num_nodes();
  Json& edges = (j["edges"] = Json::array());
  for (const Edge& e : g.edges()) {
    Json pair = Json::array();
    pair.push_back(e.u);
    pair.push_back(e.v);
    edges.push_back(std::move(pair));
  }
  return j;
}

Graph graph_from_json(const Json& j) {
  SHLCP_CHECK_MSG(j.is_object(), "graph: expected an object");
  const std::int64_t n = j.at("n").as_int();
  SHLCP_CHECK_MSG(n >= 0 && n <= 100'000, "graph: n out of range");
  Graph g(static_cast<int>(n));
  for (const Json& pair : j.at("edges").items()) {
    SHLCP_CHECK_MSG(pair.is_array() && pair.size() == 2,
                    "graph: edge must be a [u, v] pair");
    g.add_edge(static_cast<Node>(pair.at(std::size_t{0}).as_int()),
               static_cast<Node>(pair.at(std::size_t{1}).as_int()));
  }
  return g;
}

Json labeling_to_json(const Labeling& labels) {
  Json arr = Json::array();
  for (const Certificate& c : labels.raw()) {
    Json cert = Json::array();
    cert.push_back(c.bits);
    for (const int f : c.fields) {
      cert.push_back(f);
    }
    arr.push_back(std::move(cert));
  }
  return arr;
}

Labeling labeling_from_json(const Json& j, int num_nodes) {
  SHLCP_CHECK_MSG(j.is_array(), "labels: expected an array");
  SHLCP_CHECK_MSG(static_cast<int>(j.size()) == num_nodes,
                  format("labels: %zu entries for %d nodes", j.size(),
                         num_nodes));
  std::vector<Certificate> certs;
  certs.reserve(j.size());
  for (const Json& cert : j.items()) {
    SHLCP_CHECK_MSG(cert.is_array() && cert.size() >= 1,
                    "labels: certificate must be [bits, fields...]");
    Certificate c;
    c.bits = static_cast<int>(cert.at(std::size_t{0}).as_int());
    for (std::size_t i = 1; i < cert.size(); ++i) {
      c.fields.push_back(static_cast<int>(cert.at(i).as_int()));
    }
    certs.push_back(std::move(c));
  }
  return Labeling(std::move(certs));
}

Json instance_to_json(const Instance& inst) {
  Json j = Json::object();
  j["graph"] = graph_to_json(inst.g);
  Json& ports = (j["ports"] = Json::array());
  for (Node v = 0; v < inst.num_nodes(); ++v) {
    Json& row = ports.push_back(Json::array());
    for (const Port p : inst.ports.ports_of(v)) {
      row.push_back(p);
    }
  }
  Json& ids = (j["ids"] = Json::array());
  for (const Ident id : inst.ids.raw()) {
    ids.push_back(id);
  }
  j["id_bound"] = inst.ids.bound();
  j["labels"] = labeling_to_json(inst.labels);
  return j;
}

Instance instance_from_json(const Json& j) {
  SHLCP_CHECK_MSG(j.is_object(), "instance: expected an object");
  Graph g = graph_from_json(j.at("graph"));
  Instance inst = Instance::canonical(std::move(g));
  if (j.contains("ports")) {
    const Json& rows = j.at("ports");
    SHLCP_CHECK_MSG(rows.is_array() &&
                        static_cast<int>(rows.size()) == inst.num_nodes(),
                    "instance: ports must list every node");
    std::vector<std::vector<Port>> lists;
    for (const Json& row : rows.items()) {
      std::vector<Port> ports;
      for (const Json& p : row.items()) {
        ports.push_back(static_cast<Port>(p.as_int()));
      }
      lists.push_back(std::move(ports));
    }
    inst.ports = PortAssignment::from_lists(inst.g, std::move(lists));
  }
  if (j.contains("ids")) {
    std::vector<Ident> ids;
    for (const Json& id : j.at("ids").items()) {
      ids.push_back(static_cast<Ident>(id.as_int()));
    }
    Ident bound = 0;
    for (const Ident id : ids) {
      bound = std::max(bound, id);
    }
    if (j.contains("id_bound")) {
      bound = static_cast<Ident>(j.at("id_bound").as_int());
    }
    inst.ids = IdAssignment::from_vector(std::move(ids), bound);
  }
  if (j.contains("labels")) {
    inst.labels = labeling_from_json(j.at("labels"), inst.num_nodes());
  }
  return inst;
}

Request parse_request(const Json& j) {
  SHLCP_CHECK_MSG(j.is_object(), "request: expected an object");
  Request req;
  bool saw_op = false;
  for (const auto& [key, value] : j.members()) {
    if (key == "id") {
      req.id = value;
    } else if (key == "op") {
      SHLCP_CHECK_MSG(value.is_string() && !value.as_string().empty(),
                      "request: op must be a non-empty string");
      req.op = value.as_string();
      saw_op = true;
    } else if (key == "params") {
      SHLCP_CHECK_MSG(value.is_object(), "request: params must be an object");
      req.params = value;
    } else if (key == "deadline_ms") {
      req.deadline_ms = value.as_uint();
    } else if (key == "check") {
      SHLCP_CHECK_MSG(value.is_string(),
                      "request: check must be a digest string");
      req.check = value.as_string();
    } else {
      SHLCP_CHECK_MSG(false,
                      format("request: unknown member '%s'", key.c_str()));
    }
  }
  SHLCP_CHECK_MSG(saw_op, "request: missing op");
  if (!req.params.is_object()) {
    req.params = Json::object();
  }
  return req;
}

namespace {

/// Every member of an ok response but "result", which comes last.
Json ok_envelope(const Json& id, bool cached, std::string_view digest) {
  Json r = Json::object();
  r["schema"] = kWireSchema;
  r["id"] = id;
  r["ok"] = true;
  r["cached"] = cached;
  if (!digest.empty()) {
    r["digest"] = digest;
  }
  return r;
}

}  // namespace

Json ok_response(const Json& id, Json result, bool cached,
                 std::string_view digest) {
  Json r = ok_envelope(id, cached, digest);
  r["result"] = std::move(result);
  return r;
}

std::string ok_response_text(const Json& id, std::string_view result,
                             bool cached, std::string_view digest) {
  std::string out = ok_envelope(id, cached, digest).dump();
  out.pop_back();  // the envelope's closing '}'
  out += ",\"result\":";
  out += result;
  out.push_back('}');
  return out;
}

Json error_response(const Json& id, std::string_view code,
                    std::string_view message, std::string_view repro,
                    std::int64_t retry_after_ms) {
  Json r = Json::object();
  r["schema"] = kWireSchema;
  r["id"] = id;
  r["ok"] = false;
  Json& err = (r["error"] = Json::object());
  err["code"] = code;
  err["message"] = message;
  err["repro"] = repro;
  if (retry_after_ms >= 0) {
    err["retry_after_ms"] = retry_after_ms;
  }
  return r;
}

std::string session_id_error(std::string_view id) {
  if (id.empty() || id.size() > 64) {
    return "session id must be 1..64 bytes";
  }
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == ':' || c == '-';
    if (!ok) {
      return "session id must use only [A-Za-z0-9._:-]";
    }
  }
  // Reserved: "c<digits>" is the Client's per-attempt wire-id namespace
  // (retry aliasing detection); a session id there could make a late
  // retry response impersonate a session reply.
  if (id.size() >= 2 && id[0] == 'c') {
    bool all_digits = true;
    for (std::size_t i = 1; i < id.size(); ++i) {
      all_digits = all_digits && id[i] >= '0' && id[i] <= '9';
    }
    if (all_digits) {
      return "session ids matching c<digits> are reserved for client "
             "retry aliases";
    }
  }
  return "";
}

}  // namespace shlcp::svc
