// Wire-protocol tests for the certification service (service/proto.h),
// plus the util/json parse edge cases the protocol's correctness leans
// on: the service splices *stored dump strings* into its responses, so
// parse(dump(x)) must be a byte-exact round trip across everything a
// result can contain (integer boundaries, odd strings, nested
// containers), and the framing layer must survive arbitrary byte splits
// and reject malformed input with an error response rather than a crash.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "service/proto.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"

namespace shlcp::svc {
namespace {

// ---------------------------------------------------------------------
// util/json parse edge cases.

TEST(JsonEdgeCases, TruncatedDocumentsThrow) {
  EXPECT_THROW(Json::parse(""), CheckError);
  EXPECT_THROW(Json::parse("{"), CheckError);
  EXPECT_THROW(Json::parse("{\"a\": 1"), CheckError);
  EXPECT_THROW(Json::parse("[1, 2"), CheckError);
  EXPECT_THROW(Json::parse("\"abc"), CheckError);
  EXPECT_THROW(Json::parse("{\"a\""), CheckError);
  EXPECT_THROW(Json::parse("tru"), CheckError);
  EXPECT_THROW(Json::parse("\"\\u00"), CheckError);
}

TEST(JsonEdgeCases, TrailingCharactersThrow) {
  EXPECT_THROW(Json::parse("1 2"), CheckError);
  EXPECT_THROW(Json::parse("{} x"), CheckError);
  EXPECT_THROW(Json::parse("[] []"), CheckError);
}

// The parser is last-wins on duplicate keys (the object keeps the first
// occurrence's position). Pinned because canonical_dump -- and therefore
// cache keying -- depends on it being deterministic.
TEST(JsonEdgeCases, DuplicateKeysLastWins) {
  const Json j = Json::parse(R"({"a": 1, "b": 2, "a": 3})");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.at("a").as_int(), 3);
  EXPECT_EQ(j.at("b").as_int(), 2);
  EXPECT_EQ(j.dump(), R"({"a":3,"b":2})");
}

// Lone surrogates are decoded like any other BMP code point (WTF-8
// style, no pairing): \ud800 becomes the bytes ED A0 80. The parser is
// byte-transparent, not a Unicode validator.
TEST(JsonEdgeCases, LoneSurrogateDecodesToWtf8Bytes) {
  const Json j = Json::parse("\"\\ud800\"");
  EXPECT_EQ(j.as_string(), "\xED\xA0\x80");
}

TEST(JsonEdgeCases, InvalidUtf8BytesAreTransparent) {
  // 0xFF 0xFE is not valid UTF-8; the string layer must still carry it
  // byte-exactly through dump + parse.
  const std::string raw = std::string("ok\xFF\xFE\x80moar");
  const Json j(raw);
  EXPECT_EQ(Json::parse(j.dump()).as_string(), raw);
}

TEST(JsonEdgeCases, ControlCharactersEscapeAndRoundTrip) {
  const std::string raw = std::string("a\x01b\x1F\n\t\"\\");
  const Json j(raw);
  EXPECT_EQ(Json::parse(j.dump()).as_string(), raw);
  EXPECT_EQ(Json(std::string("\x01")).dump(), "\"\\u0001\"");
}

TEST(JsonEdgeCases, Int64BoundariesRoundTrip) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(Json::parse(Json(lo).dump()).as_int(), lo);
  EXPECT_EQ(Json::parse(Json(hi).dump()).as_int(), hi);
  EXPECT_EQ(Json(lo).dump(), "-9223372036854775808");
  EXPECT_EQ(Json(hi).dump(), "9223372036854775807");
}

TEST(JsonEdgeCases, Uint64BoundaryRoundTrips) {
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(Json::parse(Json(top).dump()).as_uint(), top);
  EXPECT_EQ(Json(top).dump(), "18446744073709551615");
}

// Numbers follow RFC 8259 exactly: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// Anything else is refused rather than read as a prefix or as 0.
TEST(JsonEdgeCases, MalformedThrows) {
  for (const char* text :
       {"+", ".", "e", "E", "-", "--1", "-e", "+1", "1.2.3", "1-2", "1+2",
        "[+,-.]", "{\"k\":.}", "01", "-01", "00", "1.", ".5", "-.5", "1e",
        "1e+", "1E-", "1.e5", "0x10", "1ee5", "[1.]", "{\"k\":01}"}) {
    EXPECT_THROW(Json::parse(text), CheckError) << text;
  }
}

TEST(JsonEdgeCases, RfcNumbersParse) {
  EXPECT_EQ(Json::parse("0").as_uint(), 0u);
  EXPECT_EQ(Json::parse("-0").as_int(), 0);
  EXPECT_EQ(Json::parse("10").as_uint(), 10u);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("0.5").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(Json::parse("-0.25").as_double(), -0.25);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("1E+3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-1.5e-3").as_double(), -0.0015);
  EXPECT_EQ(Json::parse("[0,-1,2.5e1]").dump(), "[0,-1,25]");
}

// A negative zero double dumps as "-0.0": "-0" would parse back as the
// integer 0 and break parse(dump(x)) == x.
TEST(JsonEdgeCases, NegativeZeroRoundTrips) {
  EXPECT_EQ(Json(-0.0).dump(), "-0.0");
  EXPECT_EQ(Json::parse(Json(-0.0).dump()).dump(), "-0.0");
  EXPECT_EQ(Json(0.0).dump(), "0");
}

TEST(JsonEdgeCases, IntegerOverflowThrows) {
  EXPECT_THROW(Json::parse("18446744073709551616"), CheckError);
  EXPECT_THROW(Json::parse("-9223372036854775809"), CheckError);
}

// The parser (and everything downstream of it: canonical_dump, dump,
// the Json destructor) recurses per container level, so nesting depth
// must be capped -- otherwise one frame of a few MiB of '[' (well under
// the 4 MiB frame cap) overflows the stack and kills the daemon.
TEST(JsonEdgeCases, NestingDepthCapped) {
  const auto nested_array = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(Json::parse(nested_array(256)));
  EXPECT_THROW(Json::parse(nested_array(257)), CheckError);

  std::string deep_object = "1";
  for (int i = 0; i < 300; ++i) {
    deep_object = "{\"a\":" + deep_object + "}";
  }
  EXPECT_THROW(Json::parse(deep_object), CheckError);

  // The actual attack shape: ~2M open brackets, no closers needed --
  // the cap must trip long before the input is exhausted.
  EXPECT_THROW(Json::parse(std::string(2u << 20, '[')), CheckError);
}

// ---------------------------------------------------------------------
// Framing.

TEST(Framing, EncodeFrameShape) {
  EXPECT_EQ(encode_frame("{}"), "2\n{}\n");
  EXPECT_EQ(encode_frame(""), "0\n\n");
}

TEST(Framing, RoundTrip) {
  FrameReader reader;
  reader.feed(encode_frame(R"({"id":1})"));
  std::string frame;
  std::string error;
  ASSERT_EQ(reader.next(&frame, &error), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, R"({"id":1})");
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

// The reader must accept any split of the byte stream, including one
// byte at a time across frame boundaries.
TEST(Framing, ByteByByteSplits) {
  const std::string stream =
      encode_frame(R"({"op":"info"})") + encode_frame("[1,2,3]") +
      encode_frame("");
  FrameReader reader;
  std::vector<std::string> frames;
  std::string frame;
  std::string error;
  for (const char c : stream) {
    reader.feed(std::string_view(&c, 1));
    while (reader.next(&frame, &error) == FrameReader::Next::kFrame) {
      frames.push_back(frame);
    }
    ASSERT_FALSE(reader.failed()) << error;
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], R"({"op":"info"})");
  EXPECT_EQ(frames[1], "[1,2,3]");
  EXPECT_EQ(frames[2], "");
}

TEST(Framing, MultipleFramesInOneFeed) {
  FrameReader reader;
  reader.feed(encode_frame("a") + encode_frame("bb") + encode_frame("ccc"));
  std::string frame;
  std::string error;
  for (const char* expected : {"a", "bb", "ccc"}) {
    ASSERT_EQ(reader.next(&frame, &error), FrameReader::Next::kFrame);
    EXPECT_EQ(frame, expected);
  }
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kNeedMore);
}

TEST(Framing, OversizedFrameRejectedNotBuffered) {
  FrameReader reader(/*max_frame_bytes=*/16);
  reader.feed("100\n");  // claims a 100-byte body; cap is 16
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(error.find("cap"), std::string::npos) << error;
}

// Regression: the byte cap must trigger even when the length prefix
// dribbles in one byte per poll wakeup (next() called between feeds,
// exactly as the server's read loop does), the error must name the
// declared length, and the failure must stay sticky for the rest of
// the connection.
TEST(Framing, ByteCapRejectionWithSplitHeader) {
  FrameReader reader(/*max_frame_bytes=*/16);
  std::string frame;
  std::string error;
  for (const char c : {'1', '0', '0'}) {
    reader.feed(std::string_view(&c, 1));
    ASSERT_EQ(reader.next(&frame, &error), FrameReader::Next::kNeedMore);
    ASSERT_FALSE(reader.failed());
  }
  const char nl = '\n';
  reader.feed(std::string_view(&nl, 1));
  ASSERT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_NE(error.find("100"), std::string::npos) << error;
  EXPECT_NE(error.find("16"), std::string::npos) << error;
  // Sticky: well-formed frames after the oversize claim stay rejected.
  reader.feed(encode_frame("{}"));
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_TRUE(reader.failed());
}

TEST(Framing, GarbageHeaderRejected) {
  FrameReader reader;
  reader.feed("xyz\n{}\n");
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_TRUE(reader.failed());
}

TEST(Framing, RunawayHeaderRejected) {
  // No newline within the maximum header width: the reader must fail
  // instead of buffering a boundless "header".
  FrameReader reader;
  reader.feed(std::string(64, '1'));
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
}

TEST(Framing, UnterminatedBodyRejected) {
  FrameReader reader;
  reader.feed("2\n{}X");  // body must be followed by '\n'
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_NE(error.find("newline"), std::string::npos) << error;
}

// Framing loss is unrecoverable: after one error the reader stays
// failed even if well-formed bytes arrive later.
TEST(Framing, FailureIsSticky) {
  FrameReader reader;
  reader.feed("?\n");
  std::string frame;
  std::string error;
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  reader.feed(encode_frame("{}"));
  EXPECT_EQ(reader.next(&frame, &error), FrameReader::Next::kError);
  EXPECT_TRUE(reader.failed());
}

// ---------------------------------------------------------------------
// Canonicalization (cache keying).

TEST(Canonical, KeyOrderInvariant) {
  const Json a = Json::parse(R"({"z": 1, "a": {"y": 2, "b": 3}})");
  const Json b = Json::parse(R"({"a": {"b": 3, "y": 2}, "z": 1})");
  EXPECT_NE(a.dump(), b.dump());  // insertion order differs...
  EXPECT_EQ(canonical_dump(a), canonical_dump(b));  // ...canonically equal
  EXPECT_EQ(canonical_dump(a), R"({"a":{"b":3,"y":2},"z":1})");
}

TEST(Canonical, ArrayOrderIsSemantic) {
  const Json a = Json::parse("[1,2]");
  const Json b = Json::parse("[2,1]");
  EXPECT_NE(canonical_dump(a), canonical_dump(b));
}

TEST(Canonical, KeysSortedInsideArrays) {
  const Json a = Json::parse(R"([{"b": 1, "a": 2}])");
  EXPECT_EQ(canonical_dump(a), R"([{"a":2,"b":1}])");
}

// ---------------------------------------------------------------------
// Property test of the writers the service answers with: canonical_dump
// (cache key, integrity check, ring key) and ok_response_text (every ok
// response), on random documents from a fixed seed and budget.

// The reference canonical form: a copy whose members are stably sorted,
// recursively, then dumped. Kept here only, as the oracle.
Json sorted_copy(const Json& j) {
  if (j.is_array()) {
    Json out = Json::array();
    for (const Json& item : j.items()) {
      out.push_back(sorted_copy(item));
    }
    return out;
  }
  if (!j.is_object()) {
    return j;
  }
  std::vector<std::pair<std::string, Json>> members = j.members();
  std::stable_sort(members.begin(), members.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  Json out = Json::object();
  for (const auto& [key, value] : members) {
    out[key] = sorted_copy(value);
  }
  return out;
}

// The same document with every object's members in a random order.
Json shuffled(const Json& j, Rng& rng) {
  if (j.is_array()) {
    Json out = Json::array();
    for (const Json& item : j.items()) {
      out.push_back(shuffled(item, rng));
    }
    return out;
  }
  if (!j.is_object()) {
    return j;
  }
  std::vector<std::pair<std::string, Json>> members = j.members();
  rng.shuffle(members);
  Json out = Json::object();
  for (const auto& [key, value] : members) {
    out[key] = shuffled(value, rng);
  }
  return out;
}

// Quotes, backslashes, control bytes, DEL and non-UTF-8 bytes.
std::string random_string(Rng& rng) {
  static constexpr char kBytes[] = {'a',    'b',    '"',    '\\', '/',
                                    '\n',   '\t',   '\r',   '\x01', '\x1f',
                                    '\x7f', '\x80', '\xc3', '\xff', ' '};
  std::string out;
  const int len = rng.next_int(0, 8);
  for (int i = 0; i < len; ++i) {
    out.push_back(rng.next_coin()
                      ? kBytes[rng.next_below(sizeof(kBytes))]
                      : static_cast<char>(rng.next_below(256)));
  }
  return out;
}

// Keys that share prefixes, so the sort compares past the first byte.
std::string random_key(Rng& rng) {
  static constexpr const char* kStems[] = {"", "a", "ab", "abc", "a\"",
                                           "A", "\xff", "a\x01", "b"};
  std::string key = kStems[rng.next_below(std::size(kStems))];
  if (rng.next_coin()) {
    key += random_string(rng);
  }
  return key;
}

Json random_scalar(Rng& rng) {
  switch (rng.next_below(12)) {
    case 0:
      return Json();
    case 1:
      return Json(rng.next_coin());
    case 2:
      return Json(std::numeric_limits<std::int64_t>::min());
    case 3:
      return Json(std::numeric_limits<std::int64_t>::max());
    case 4:
      return Json(std::numeric_limits<std::uint64_t>::max());
    case 5:
      return Json(static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()) +
                  1);
    case 6:
      return Json(static_cast<std::int64_t>(rng.next_u64()));
    case 7: {
      static constexpr double kDoubles[] = {
          0.0, -0.0, 0.5, -0.1, 1e300, -1e-300, 5e-324, 1e17, 12345678.0,
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()};
      return Json(kDoubles[rng.next_below(std::size(kDoubles))]);
    }
    case 8: {  // any bit pattern: subnormals, NaNs, infinities included
      const std::uint64_t bits = rng.next_u64();
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));
      return Json(d);
    }
    default:
      return Json(random_string(rng));
  }
}

Json random_document(Rng& rng, int depth) {
  const std::uint64_t kind = depth >= 4 ? 0 : rng.next_below(3);
  if (kind == 0) {
    return random_scalar(rng);
  }
  const int size = rng.next_int(0, 5);  // empty containers included
  if (kind == 1) {
    Json arr = Json::array();
    for (int i = 0; i < size; ++i) {
      arr.push_back(random_document(rng, depth + 1));
    }
    return arr;
  }
  Json obj = Json::object();
  for (int i = 0; i < size; ++i) {
    obj[random_key(rng)] = random_document(rng, depth + 1);
  }
  return obj;
}

TEST(Writers, RandomDocumentsKeepEveryWriterProperty) {
  Rng rng(0x5EED0F15ULL);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::uint64_t replay = rng.state();
    const Json doc = random_document(rng, 0);
    const std::string dumped = doc.dump();
    const std::string canonical = doc.canonical_dump();
    SCOPED_TRACE(testing::Message() << "iteration " << iter << ", Rng state "
                                    << replay << ", document " << dumped);

    EXPECT_EQ(canonical, sorted_copy(doc).dump());
    EXPECT_EQ(shuffled(doc, rng).canonical_dump(), canonical);
    EXPECT_EQ(Json::parse(dumped).dump(), dumped);

    const Json id = random_scalar(rng);
    const bool cached = rng.next_coin();
    const std::string digest = rng.next_coin() ? "" : "fnv:0123456789abcdef";
    EXPECT_EQ(ok_response_text(id, dumped, cached, digest),
              ok_response(id, doc, cached, digest).dump());
  }
}

// ---------------------------------------------------------------------
// Value codecs.

TEST(Codec, GraphRoundTrip) {
  for (const Graph& g :
       {make_path(1), make_cycle(5), make_grid(2, 3), make_complete(4)}) {
    const Json j = graph_to_json(g);
    const Graph back = graph_from_json(j);
    EXPECT_EQ(graph_to_json(back).dump(), j.dump());
    EXPECT_EQ(back.num_nodes(), g.num_nodes());
    EXPECT_EQ(back.num_edges(), g.num_edges());
  }
}

TEST(Codec, LabelingRoundTrip) {
  std::vector<Certificate> certs(3);
  certs[0] = Certificate{{1, 2}, 5};
  certs[1] = Certificate{{}, 0};
  certs[2] = Certificate{{7}, 3};
  const Labeling labels(certs);
  const Json j = labeling_to_json(labels);
  EXPECT_EQ(labeling_from_json(j, 3), labels);
}

TEST(Codec, InstanceRoundTrip) {
  Instance inst = Instance::canonical(make_cycle(4));
  inst.labels.at(0) = Certificate{{1}, 1};
  inst.labels.at(2) = Certificate{{0}, 1};
  const Json j = instance_to_json(inst);
  const Instance back = instance_from_json(j);
  EXPECT_EQ(instance_to_json(back).dump(), j.dump());
  EXPECT_EQ(back.labels, inst.labels);
  EXPECT_EQ(back.g.num_nodes(), inst.g.num_nodes());
}

// ---------------------------------------------------------------------
// Request envelope validation.

TEST(RequestEnvelope, ParsesMinimalAndFullRequests) {
  const Request minimal = parse_request(Json::parse(R"({"op": "info"})"));
  EXPECT_EQ(minimal.op, "info");
  EXPECT_TRUE(minimal.id.is_null());
  EXPECT_TRUE(minimal.params.is_object());
  EXPECT_EQ(minimal.params.size(), 0u);
  EXPECT_EQ(minimal.deadline_ms, 0u);

  const Request full = parse_request(Json::parse(
      R"({"id": 7, "op": "check_coloring", "params": {"k": 2},
          "deadline_ms": 1500, "check": "fnv:00000000deadbeef"})"));
  EXPECT_EQ(full.id.as_int(), 7);
  EXPECT_EQ(full.op, "check_coloring");
  EXPECT_EQ(full.params.at("k").as_int(), 2);
  EXPECT_EQ(full.deadline_ms, 1500u);
  EXPECT_EQ(full.check, "fnv:00000000deadbeef");
  EXPECT_EQ(minimal.check, "");  // absent = unchecked
}

// Unknown members are rejected loudly: a client typo ("dedline_ms")
// must not silently strip the deadline.
TEST(RequestEnvelope, UnknownMembersRejected) {
  EXPECT_THROW(
      parse_request(Json::parse(R"({"op": "info", "dedline_ms": 10})")),
      CheckError);
}

TEST(RequestEnvelope, MalformedEnvelopesRejected) {
  EXPECT_THROW(parse_request(Json::parse("[]")), CheckError);
  EXPECT_THROW(parse_request(Json::parse("{}")), CheckError);  // no op
  EXPECT_THROW(parse_request(Json::parse(R"({"op": 3})")), CheckError);
  EXPECT_THROW(parse_request(Json::parse(R"({"op": ""})")), CheckError);
  EXPECT_THROW(
      parse_request(Json::parse(R"({"op": "info", "params": []})")),
      CheckError);
  EXPECT_THROW(
      parse_request(Json::parse(R"({"op": "info", "deadline_ms": -1})")),
      CheckError);
  EXPECT_THROW(
      parse_request(Json::parse(R"({"op": "info", "check": 5})")),
      CheckError);
}

TEST(RequestEnvelope, ResponseBuilders) {
  const Json ok = ok_response(Json(std::int64_t{3}), Json::parse("{}"),
                              /*cached=*/true);
  EXPECT_EQ(ok.at("schema").as_string(), kWireSchema);
  EXPECT_EQ(ok.at("id").as_int(), 3);
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_TRUE(ok.at("cached").as_bool());

  const Json err = error_response(Json(), "invalid_params", "boom", "REPRO x");
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_TRUE(err.at("id").is_null());
  EXPECT_EQ(err.at("error").at("code").as_string(), "invalid_params");
  EXPECT_EQ(err.at("error").at("message").as_string(), "boom");
  EXPECT_EQ(err.at("error").at("repro").as_string(), "REPRO x");
}

// The resilience members are strictly additive: omitted by default (so
// pre-resilience captures stay byte-stable), present exactly when the
// builder is given one.
TEST(RequestEnvelope, ResilienceMembersAreAdditive) {
  const Json bare = ok_response(Json(std::int64_t{1}), Json::parse("{}"),
                                /*cached=*/false);
  EXPECT_FALSE(bare.contains("digest"));
  const Json digested =
      ok_response(Json(std::int64_t{1}), Json::parse("{}"),
                  /*cached=*/false, "fnv:1234567812345678");
  EXPECT_EQ(digested.at("digest").as_string(), "fnv:1234567812345678");

  const Json plain = error_response(Json(), "overloaded", "queue full");
  EXPECT_FALSE(plain.at("error").contains("retry_after_ms"));
  const Json hinted = error_response(Json(), "overloaded", "queue full", "",
                                     /*retry_after_ms=*/25);
  EXPECT_EQ(hinted.at("error").at("retry_after_ms").as_int(), 25);
}

}  // namespace
}  // namespace shlcp::svc
