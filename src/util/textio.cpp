#include "util/textio.h"

#include <bit>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>

#include "util/check.h"

namespace t2c::textio {

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r';
}

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// Block bodies are copied to and from int8/16/32/64 with memcpy, which is
// the format's little-endian layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "checkpoint blocks assume a little-endian host");

constexpr std::uint64_t kSumSeed = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kSumMul = 0xBF58476D1CE4E5B9ULL;  // odd
constexpr int kSumDigits = 16;

/// Stores each value as an Int into `dst`; false when one does not fit.
template <typename Int>
bool narrow(const std::int64_t* src, std::size_t n, char* dst) {
  bool fits = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<Int>(src[i]);
    fits &= v == src[i];
    std::memcpy(dst + i * sizeof(Int), &v, sizeof(Int));
  }
  return fits;
}

template <typename Int>
void widen(const char* src, std::size_t n, std::int64_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    Int v = 0;
    std::memcpy(&v, src + i * sizeof(Int), sizeof(Int));
    dst[i] = v;
  }
}

}  // namespace

void put_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void put_float(std::string& out, float v) {
  char buf[48];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                    std::numeric_limits<float>::max_digits10);
  out.append(buf, res.ptr);
}

void put_line(std::string& out, std::initializer_list<std::int64_t> vals) {
  const char* sep = "";
  for (const std::int64_t v : vals) {
    out += sep;
    put_int(out, v);
    sep = " ";
  }
  out += '\n';
}

void put_tensor(std::string& out, const std::vector<std::int64_t>& shape,
                const std::vector<std::int64_t>& data, int bits) {
  check(bits >= 1 && bits <= 64, "put_tensor: bits outside [1, 64]");
  const int width = bits <= 8 ? 1 : bits <= 16 ? 2 : bits <= 32 ? 4 : 8;
  put_vec(out, shape);
  out += static_cast<char>('0' + width);
  out += ' ';
  const std::size_t sum_at = out.size();
  out.append(kSumDigits, '0');
  out += '\n';
  const std::size_t body_at = out.size();
  const std::size_t bytes = data.size() * static_cast<std::size_t>(width);
  out.resize(body_at + bytes + 1);
  char* body = out.data() + body_at;
  const bool fits =
      width == 1   ? narrow<std::int8_t>(data.data(), data.size(), body)
      : width == 2 ? narrow<std::int16_t>(data.data(), data.size(), body)
      : width == 4 ? narrow<std::int32_t>(data.data(), data.size(), body)
                   : narrow<std::int64_t>(data.data(), data.size(), body);
  check(fits, "put_tensor: a value is wider than the given bits");
  body[bytes] = '\n';
  put_hex(out.data() + sum_at, block_checksum(body, bytes), kSumDigits);
}

std::uint64_t block_checksum(const char* body, std::size_t bytes) {
  std::uint64_t h = kSumSeed;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, body + i, 8);
    h = (h ^ w) * kSumMul;
  }
  if (i < bytes) {
    std::uint64_t w = 0;
    std::memcpy(&w, body + i, bytes - i);
    h = (h ^ w) * kSumMul;
  }
  return h;
}

std::string read_file(const std::string& path, const char* who) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::ifstream is(path, std::ios::binary);
  if (ec || !is) fail(std::string(who) + ": cannot open " + path);
  std::string text(size, '\0');
  if (!is.read(text.data(), static_cast<std::streamsize>(size))) {
    fail(std::string(who) + ": read failed for " + path);
  }
  return text;
}

void write_file(const std::string& path, const std::string& text,
                const char* who) {
  std::ofstream os(path, std::ios::binary);
  if (!os) fail(std::string(who) + ": cannot open " + path);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  os.flush();
  if (!os) fail(std::string(who) + ": write failed for " + path);
}

Reader::Reader(std::string text, std::string name)
    : text_(std::move(text)), name_(std::move(name)) {}

Reader Reader::from_file(const std::string& path, const char* who) {
  return Reader(read_file(path, who), std::string(who) + " " + path);
}

void Reader::fail_at(std::size_t at, const std::string& field,
                     const std::string& what) const {
  std::string msg = name_ + ": '" + field + "' at byte " +
                    std::to_string(at) + ": " + what;
  // Printable characters only: the offset may lie inside a binary block.
  std::size_t end = at;
  while (end < text_.size() && end - at < 16 && text_[end] > ' ' &&
         text_[end] < 0x7F) {
    ++end;
  }
  if (end > at) msg += ", got '" + text_.substr(at, end - at) + "'";
  throw ParseError("t2c: " + msg);
}

void Reader::skip_ws() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
}

std::int64_t bounded_numel(const std::vector<std::int64_t>& shape,
                           std::int64_t room) {
  // numel stays <= room at every step, so the product cannot overflow.
  std::int64_t numel = 1;
  for (const std::int64_t d : shape) {
    if (d < 0 || (d > 0 && numel > room / d)) return -1;
    numel *= d;
  }
  return numel;
}

std::int64_t Reader::budget() const {
  return static_cast<std::int64_t>((text_.size() - pos_ + 1) / 2);
}

template <typename Int>
Int Reader::integer(const char* field, int base) {
  skip_ws();
  if (pos_ == text_.size()) fail(field, "truncated at end of file");
  const char* last = text_.data() + text_.size();
  Int v{};
  const auto [ptr, ec] = std::from_chars(text_.data() + pos_, last, v, base);
  if (ec == std::errc::result_out_of_range) fail(field, "value out of range");
  if (ec != std::errc() || (ptr != last && !is_space(*ptr))) {
    fail(field, base == 16 ? "expected a hex word" : "expected an integer");
  }
  pos_ = static_cast<std::size_t>(ptr - text_.data());
  return v;
}

std::int64_t Reader::i64(const char* field) {
  return integer<std::int64_t>(field, 10);
}

int Reader::i32(const char* field) { return integer<int>(field, 10); }

int Reader::i32_in(const char* field, int lo, int hi) {
  skip_ws();
  const std::size_t start = pos_;
  const int v = i32(field);
  if (v < lo || v > hi) {
    pos_ = start;
    fail(field, "value outside [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
  }
  return v;
}

std::uint64_t Reader::hex(const char* field) {
  return integer<std::uint64_t>(field, 16);
}

float Reader::f32(const char* field) {
  skip_ws();
  if (pos_ == text_.size()) fail(field, "truncated at end of file");
  const char* last = text_.data() + text_.size();
  float v = 0.0F;
  const auto [ptr, ec] = std::from_chars(text_.data() + pos_, last, v);
  if (ec != std::errc() || (ptr != last && !is_space(*ptr))) {
    fail(field, "expected a float");
  }
  pos_ = static_cast<std::size_t>(ptr - text_.data());
  return v;
}

std::string_view Reader::token(const char* field) {
  skip_ws();
  if (pos_ == text_.size()) fail(field, "truncated at end of file");
  const std::size_t start = pos_;
  while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
  return std::string_view(text_).substr(start, pos_ - start);
}

void Reader::expect(const char* word) {
  skip_ws();
  const std::size_t start = pos_;
  if (token(word) != word) {
    pos_ = start;
    fail(word, "keyword expected");
  }
}

bool Reader::next_is(std::string_view word) {
  skip_ws();
  const std::size_t end = pos_ + word.size();
  return text_.compare(pos_, word.size(), word) == 0 &&
         (end == text_.size() || is_space(text_[end]));
}

bool Reader::consume(std::string_view prefix) {
  skip_ws();
  if (text_.compare(pos_, prefix.size(), prefix) != 0) return false;
  pos_ += prefix.size();
  return true;
}

std::size_t Reader::count(const char* field) {
  skip_ws();
  const std::size_t start = pos_;
  const std::int64_t n = i64(field);
  if (n < 0 || n > budget()) {
    pos_ = start;
    fail(field, "count is negative or exceeds the rest of the file");
  }
  return static_cast<std::size_t>(n);
}

template <typename Int>
std::vector<Int> Reader::vec(const char* field) {
  std::vector<Int> v(count(field));
  for (Int& x : v) x = integer<Int>(field, 10);
  return v;
}

template std::vector<int> Reader::vec<int>(const char*);
template std::vector<std::int64_t> Reader::vec<std::int64_t>(const char*);

std::vector<std::int64_t> Reader::shape(const char* field) {
  skip_ws();
  const std::size_t start = pos_;
  std::vector<std::int64_t> dims = vec<std::int64_t>(field);
  if (dims.empty() || dims.size() > 8) {
    pos_ = start;
    fail(field, "tensor rank outside [1, 8]");
  }
  return dims;
}

std::vector<std::int64_t> Reader::values(
    const std::vector<std::int64_t>& shape, const char* field) {
  const std::int64_t numel = bounded_numel(shape, budget());
  if (numel < 0) {
    fail(field, "shape is negative or exceeds the rest of the file");
  }
  std::vector<std::int64_t> data(static_cast<std::size_t>(numel));
  for (std::int64_t& x : data) x = i64(field);
  return data;
}

std::vector<std::int64_t> Reader::block(
    const std::vector<std::int64_t>& shape, const char* field) {
  skip_ws();
  const std::size_t start = pos_;
  const int width = i32(field);
  if (width != 1 && width != 2 && width != 4 && width != 8) {
    pos_ = start;
    fail(field, "block width must be 1, 2, 4 or 8");
  }
  skip_ws();
  const std::size_t sum_at = pos_;
  const std::uint64_t sum = hex(field);
  if (pos_ == text_.size() || text_[pos_] != '\n') {
    fail(field, "expected a newline after the block checksum");
  }
  ++pos_;
  // The body and its newline must fit in the bytes left.
  const auto left = static_cast<std::int64_t>(text_.size() - pos_);
  const std::int64_t numel =
      left < 1 ? -1 : bounded_numel(shape, (left - 1) / width);
  if (numel < 0) {
    pos_ = start;
    fail(field, "shape is negative or its block exceeds the rest of the file");
  }
  const auto n = static_cast<std::size_t>(numel);
  const std::size_t bytes = n * static_cast<std::size_t>(width);
  const char* body = text_.data() + pos_;
  if (body[bytes] != '\n') {
    pos_ += bytes;
    fail(field, "expected a newline after the block body");
  }
  if (block_checksum(body, bytes) != sum) {
    pos_ = sum_at;
    fail(field, "block checksum mismatch");
  }
  std::vector<std::int64_t> data(n);
  switch (width) {
    case 1:
      widen<std::int8_t>(body, n, data.data());
      break;
    case 2:
      widen<std::int16_t>(body, n, data.data());
      break;
    case 4:
      widen<std::int32_t>(body, n, data.data());
      break;
    default:
      widen<std::int64_t>(body, n, data.data());
  }
  pos_ += bytes + 1;
  return data;
}

bool Reader::more_on_line() {
  while (pos_ < text_.size() && is_blank(text_[pos_])) ++pos_;
  return pos_ < text_.size() && text_[pos_] != '\n';
}

void Reader::skip_line() {
  const std::size_t nl = text_.find('\n', pos_);
  pos_ = nl == std::string::npos ? text_.size() : nl + 1;
}

void Reader::end_line(const char* field) {
  if (more_on_line()) fail(field, "unexpected text before the end of line");
  if (pos_ < text_.size()) ++pos_;
}

bool Reader::done() {
  skip_ws();
  return pos_ == text_.size();
}

}  // namespace t2c::textio
