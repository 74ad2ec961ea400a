// Text codec tests (util/textio.h). The checkpoint, hex and decimal formats
// were defined by iostream expressions; the codec must reproduce them
// character for character, so every writer is compared with the iostream
// expression it replaced, inlined here as the reference. The reader must
// reject malformed input with a diagnostic naming the field and the byte
// offset, and must bound size fields before allocating from them.
#include <gtest/gtest.h>

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
  for (int bits = 2; bits <= 32; ++bits) {
    const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
    const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
    const int digits = (bits + 3) / 4;
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    for (const std::int64_t v : {lo, hi, std::int64_t{0}, std::int64_t{-1}}) {
      const std::uint64_t raw = static_cast<std::uint64_t>(v) & mask;
      std::ostringstream os;
      os << std::uppercase << std::hex;
      os.width(digits);
      os.fill('0');
      os << raw;
      std::string s;
      textio::put_hex(s, raw, digits);
      EXPECT_EQ(s, os.str()) << "bits=" << bits << " v=" << v;
      textio::Reader r(s, "probe");
      EXPECT_EQ(r.hex("word"), raw) << s;
    }
  }
}

TEST(TextIo, CheckpointFieldsMatchOstream) {
  const std::vector<std::int64_t> v = {3, -7, kI64Min, kI64Max, 0};
  const std::vector<std::int64_t> shape = {2, 3};
  const std::vector<std::int64_t> data = {1, -2, 3, -4, 5, -6};
  const std::vector<std::int64_t> empty_shape = {0, 4};
  // The vector and tensor fields as the ops used to stream them.
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
  stream_tensor(shape, data);
  stream_tensor(empty_shape, {});
  os << 5 << ' ' << -6 << '\n' << '\n';  // a scalar line, Tokenize's line

  std::string s;
  textio::put_vec(s, v);
  textio::put_tensor(s, shape, data);
  textio::put_tensor(s, empty_shape, {});
  textio::put_line(s, {5, -6});
  textio::put_line(s, {});
  EXPECT_EQ(s, os.str());

  textio::Reader r(s, "probe");
  EXPECT_EQ(r.vec<std::int64_t>("v"), v);
  const std::vector<std::int64_t> back_shape = r.shape("t");
  EXPECT_EQ(back_shape, shape);
  EXPECT_EQ(r.values(back_shape, "t"), data);
  const std::vector<std::int64_t> back_empty = r.shape("e");
  EXPECT_EQ(back_empty, empty_shape);
  EXPECT_TRUE(r.values(back_empty, "e").empty());
  EXPECT_EQ(r.i32("a"), 5);
  EXPECT_EQ(r.i64("b"), -6);
  EXPECT_TRUE(r.done());
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
