// Codec tests (util/textio.h). The checkpoint, hex and decimal formats
// were defined by iostream expressions; the codec must reproduce them
// character for character, so every text writer is compared with the
// iostream expression it replaced, inlined here as the reference. The
// checkpoint's binary tensor blocks must round-trip every int64 at its
// narrowest width, and their checksum must catch any one changed byte.
// The reader must reject malformed input with a diagnostic naming the
// field and the byte offset, and must bound size fields before allocating
// from them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <functional>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>

#include "util/check.h"
#include "util/textio.h"
#include "xport/writers.h"

namespace t2c {
namespace {

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

std::uint32_t float_bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(TextIo, IntegersMatchOstream) {
  const std::int64_t cases[] = {kI64Min, kI64Max, 0,   -1,
                                1,       -128,    127, std::int64_t{1} << 40};
  for (const std::int64_t v : cases) {
    std::ostringstream os;
    os << v;
    std::string s;
    textio::put_int(s, v);
    EXPECT_EQ(s, os.str());
    textio::Reader r(s, "probe");
    EXPECT_EQ(r.i64("v"), v);
  }
}

TEST(TextIo, FloatsMatchOstreamAtMaxDigits10) {
  std::vector<float> cases = {0.0F,
                              -0.0F,
                              1.0F,
                              -1.0F,
                              0.1F,
                              -0.1234567F,
                              0.00390625F,
                              1e7F,
                              123456789.0F,
                              1e-5F,
                              FLT_MAX,
                              -FLT_MAX,
                              FLT_MIN,
                              -FLT_MIN,
                              FLT_EPSILON,
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              1e-40F,
                              -3.3e-39F};
  // Random bit patterns reach every exponent, denormals included.
  std::mt19937 gen(7);
  while (cases.size() < 4000) {
    const std::uint32_t u = gen();
    float f = 0.0F;
    std::memcpy(&f, &u, sizeof(f));
    if (std::isfinite(f)) cases.push_back(f);
  }
  for (const float v : cases) {
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<float>::max_digits10) << v;
    std::string s;
    textio::put_float(s, v);
    ASSERT_EQ(s, os.str()) << "bits " << float_bits(v);
    textio::Reader r(s, "probe");
    ASSERT_EQ(float_bits(r.f32("v")), float_bits(v)) << s;
  }
}

TEST(TextIo, HexMatchesOstreamForEveryWordWidth) {
  const std::string path = ::testing::TempDir() + "/textio_words.hex";
  for (int bits = 2; bits <= 32; ++bits) {
    const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
    const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
    const int digits = (bits + 3) / 4;
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    const std::vector<std::int64_t> words = {lo, hi, 0, -1};
    write_hex(path, ITensor::from({4}, words), bits);
    // write_hex's word lines follow its two comment lines.
    textio::Reader r(textio::read_file(path, "probe"), "probe");
    r.skip_line();
    r.skip_line();
    for (const std::int64_t v : words) {
      const std::uint64_t raw = static_cast<std::uint64_t>(v) & mask;
      std::ostringstream os;
      os << std::uppercase << std::hex;
      os.width(digits);
      os.fill('0');
      os << raw;
      EXPECT_EQ(r.token("word"), os.str()) << "bits=" << bits << " v=" << v;
    }
    EXPECT_TRUE(r.done());
    const ITensor back = read_hex(path, bits);
    EXPECT_EQ(back.vec(), words) << "bits=" << bits;
  }
}

TEST(TextIo, CheckpointFieldsMatchOstream) {
  const std::vector<std::int64_t> v = {3, -7, kI64Min, kI64Max, 0};
  const std::vector<std::int64_t> shape = {2, 3};
  const std::vector<std::int64_t> data = {1, -2, 3, -4, 5, -6};
  const std::vector<std::int64_t> empty_shape = {0, 4};
  // The vector and V1 tensor fields as the ops used to stream them.
  std::ostringstream os;
  const auto stream_vec = [&os](const std::vector<std::int64_t>& x) {
    os << x.size();
    for (auto e : x) os << ' ' << e;
    os << '\n';
  };
  const auto stream_tensor = [&](const std::vector<std::int64_t>& dims,
                                 const std::vector<std::int64_t>& t) {
    stream_vec(dims);
    const auto n = static_cast<std::int64_t>(t.size());
    for (std::int64_t i = 0; i < n; ++i) {
      os << t[static_cast<std::size_t>(i)] << (i + 1 == n ? '\n' : ' ');
    }
  };
  stream_vec(v);
  os << 5 << ' ' << -6 << '\n' << '\n';  // a scalar line, Tokenize's line

  std::string s;
  textio::put_vec(s, v);
  textio::put_line(s, {5, -6});
  textio::put_line(s, {});
  EXPECT_EQ(s, os.str());

  // V1 tensor bodies, which only the reader still handles.
  stream_tensor(shape, data);
  stream_tensor(empty_shape, {});
  textio::Reader r(os.str(), "probe");
  EXPECT_EQ(r.vec<std::int64_t>("v"), v);
  EXPECT_EQ(r.i32("a"), 5);
  EXPECT_EQ(r.i64("b"), -6);
  const std::vector<std::int64_t> back_shape = r.shape("t");
  EXPECT_EQ(back_shape, shape);
  EXPECT_EQ(r.values(back_shape, "t"), data);
  const std::vector<std::int64_t> back_empty = r.shape("e");
  EXPECT_EQ(back_empty, empty_shape);
  EXPECT_TRUE(r.values(back_empty, "e").empty());
  EXPECT_TRUE(r.done());
}

/// put_tensor of `data` as a one-dim tensor, at the bits its range needs.
std::string block_of(const std::vector<std::int64_t>& data) {
  std::int64_t lo = 0, hi = 0;
  for (const std::int64_t x : data) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  std::string s;
  textio::put_tensor(s, {static_cast<std::int64_t>(data.size())}, data,
                     required_word_bits(lo, hi));
  return s;
}

/// Reads back one block_of text; the cursor must end exactly after it.
std::vector<std::int64_t> read_block(const std::string& s) {
  textio::Reader r(s, "probe");
  const std::vector<std::int64_t> shape = r.shape("t");
  std::vector<std::int64_t> data = r.block(shape, "t");
  EXPECT_EQ(r.offset(), s.size());
  return data;
}

TEST(TextIo, BlocksRoundTripAtTheNarrowestWidth) {
  // Each width's edges, the edges one past them, and bytes that read as a
  // newline or a blank inside the body.
  const std::vector<std::pair<std::vector<std::int64_t>, char>> cases = {
      {{0}, '1'},
      {{-128, 127, 10, 32, 13, 9, -1}, '1'},
      {{-129, 5}, '2'},
      {{128}, '2'},
      {{-32768, 32767, 0x0A0A, 0x2020}, '2'},
      {{32768, -1}, '4'},
      {{-2147483648LL, 2147483647LL, 0x0A0A0A0A}, '4'},
      {{2147483648LL}, '8'},
      {{kI64Min, kI64Max, 0x0A0A0A0A0A0A0A0ALL, -1}, '8'},
  };
  for (const auto& [data, width] : cases) {
    const std::string s = block_of(data);
    const std::size_t header = s.find('\n') + 1;
    EXPECT_EQ(s[header], width) << s;
    EXPECT_EQ(s.compare(header + 1, 1, " "), 0);
    EXPECT_EQ(s[header + 18], '\n');  // "<w> " + 16 checksum digits
    EXPECT_EQ(s.size(),
              header + 19 + data.size() * static_cast<std::size_t>(
                                              width - '0') + 1);
    EXPECT_EQ(read_block(s), data) << s;
  }
  // An empty tensor has an empty body and still a checked header.
  std::string empty;
  textio::put_tensor(empty, {0, 4}, {}, 1);
  textio::Reader r(empty + "7\n", "probe");
  const std::vector<std::int64_t> shape = r.shape("e");
  EXPECT_TRUE(r.block(shape, "e").empty());
  EXPECT_EQ(r.i64("next"), 7);
  // A value wider than the bits the caller claims is a writer bug.
  std::string bad;
  EXPECT_THROW(textio::put_tensor(bad, {1}, {300}, 8), Error);
}

TEST(TextIo, BlockChecksumCatchesEveryOneByteChange) {
  std::vector<std::int64_t> data(37);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::int64_t>(i * 7919 % 65536) - 32768;
  }
  const std::string s = block_of(data);
  const std::size_t body = s.find('\n', s.find('\n') + 1) + 1;
  ASSERT_EQ(s.size() - body - 1, data.size() * 2);
  for (std::size_t at = body; at + 1 < s.size(); ++at) {
    for (const int bit : {0, 7}) {
      std::string m = s;
      m[at] = static_cast<char>(m[at] ^ (1 << bit));
      textio::Reader r(m, "probe");
      const std::vector<std::int64_t> shape = r.shape("t");
      EXPECT_NE(error_of([&] { (void)r.block(shape, "t"); })
                    .find("block checksum mismatch"),
                std::string::npos)
          << "byte " << at << " bit " << bit;
    }
  }
  // Words of zero bytes still move the checksum, and so does the tail.
  EXPECT_NE(textio::block_checksum("\0\0\0\0\0\0\0\0", 8),
            textio::block_checksum("\0\0\0\0\0\0\0\1", 8));
  EXPECT_NE(textio::block_checksum("abcdefgh\0", 9),
            textio::block_checksum("abcdefgh\1", 9));
}

TEST(TextIo, MalformedBlocksThrowBeforeAllocating) {
  const std::string good = block_of({1, -2, 3});  // "1 3\n1 <sum>\n..."
  const std::size_t header = good.find('\n') + 1;
  const std::size_t body = good.find('\n', header) + 1;
  const auto bad = [&](const std::string& text) {
    textio::Reader r(text, "probe.t2c");
    const std::vector<std::int64_t> shape = r.shape("IntLinear weight");
    return error_of([&] { (void)r.block(shape, "IntLinear weight"); });
  };
  const auto with_width = [&](const char* w) {
    return good.substr(0, header) + w + good.substr(header + 1);
  };
  for (const char* w : {"0", "3", "16", "-1", "x"}) {
    const std::string e = bad(with_width(w));
    EXPECT_NE(e.find("'IntLinear weight' at byte 4: "), std::string::npos)
        << w << ": " << e;
  }
  EXPECT_NE(bad(with_width("3")).find("block width must be 1, 2, 4 or 8, "
                                      "got '3'"),
            std::string::npos);
  // A shape whose block would run past the end, however large.
  for (const char* dims : {"1 4\n", "1 1000000000000\n",
                           "2 4611686018427387904 4\n", "1 -3\n"}) {
    EXPECT_NE(bad(dims + good.substr(header))
                  .find("block exceeds the rest of the file"),
              std::string::npos)
        << dims;
  }
  // Cut anywhere in the header or body, or without the trailing newline.
  for (std::size_t len = header; len < good.size(); ++len) {
    EXPECT_NE(bad(good.substr(0, len)), "") << "cut at " << len;
  }
  // Exactly one newline between header and body: a blank before it, or a
  // second one, shifts the body and fails.
  EXPECT_NE(bad(good.substr(0, body - 1) + " " + good.substr(body - 1)), "");
  EXPECT_NE(bad(good.substr(0, body) + "\n" + good.substr(body)), "");
  // A body one byte short, followed by more text.
  std::string shorter = good;
  shorter.erase(body, 1);
  EXPECT_NE(bad(shorter + "7\n").find("expected a newline after the block "
                                      "body"),
            std::string::npos);
  EXPECT_EQ(bad(good), "");
}

TEST(TextIo, DiagnosticNamesFieldOffsetAndText) {
  textio::Reader r("12 x7\n", "probe.t2c");
  EXPECT_EQ(r.i64("first"), 12);
  EXPECT_EQ(error_of([&] { (void)r.i64("IntConv2d weight"); }),
            "t2c: probe.t2c: 'IntConv2d weight' at byte 3: expected an "
            "integer, got 'x7'");
  textio::Reader k("T2C-DEPLOY-V2\n", "m.t2c");
  EXPECT_EQ(error_of([&] { k.expect("T2C-DEPLOY-V1"); }),
            "t2c: m.t2c: 'T2C-DEPLOY-V1' at byte 0: keyword expected, got "
            "'T2C-DEPLOY-V2'");
}

TEST(TextIo, ReaderRejectsMalformedNumbers) {
  for (const char* text : {"", "  \n", "12x", "x12", "-", "+5", "1.5", "0x10",
                           "99999999999999999999"}) {
    textio::Reader r(text, "probe");
    EXPECT_THROW((void)r.i64("v"), Error) << '"' << text << '"';
  }
  textio::Reader wide("3000000000", "probe");
  EXPECT_THROW((void)wide.i32("v"), Error);
  textio::Reader range("7", "probe");
  EXPECT_THROW((void)range.i32_in("v", 0, 2), Error);
  textio::Reader flt("1.5q", "probe");
  EXPECT_THROW((void)flt.f32("v"), Error);
  textio::Reader hex("FG", "probe");
  EXPECT_THROW((void)hex.hex("v"), Error);
  textio::Reader line("FF junk\n", "probe");
  EXPECT_EQ(line.hex("v"), 0xFFU);
  EXPECT_THROW(line.end_line("v"), Error);
}

TEST(TextIo, SizeFieldsAreBoundedByTheRestOfTheText) {
  // A hostile size field fails with a diagnostic before any allocation.
  for (const char* text : {"1000000000000 1 2\n", "-1\n", "3 1 2\n"}) {
    textio::Reader r(text, "probe");
    EXPECT_THROW((void)r.vec<std::int64_t>("v"), Error) << text;
  }
  textio::Reader fits("3 1 2 3\n", "probe");
  EXPECT_EQ(fits.vec<int>("v"), (std::vector<int>{1, 2, 3}));
  for (const char* text :
       {"2 1000000 1000000\n1 2\n", "2 -1 4\n1\n",
        "3 4611686018427387904 4 4\n1\n", "9 1 1 1 1 1 1 1 1 1\n1\n",
        "0\n"}) {
    textio::Reader r(text, "probe");
    EXPECT_THROW((void)r.values(r.shape("t"), "t"), Error) << text;
  }
}

}  // namespace
}  // namespace t2c
