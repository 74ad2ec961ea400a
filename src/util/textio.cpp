#include "util/textio.h"

#include <charconv>
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

void put_hex(std::string& out, std::uint64_t raw, int digits) {
  char buf[16];
  int n = 0;
  do {
    buf[n++] = "0123456789ABCDEF"[raw & 0xFU];
    raw >>= 4;
  } while (raw != 0);
  if (digits > n) out.append(static_cast<std::size_t>(digits - n), '0');
  while (n > 0) out += buf[--n];
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
                const std::vector<std::int64_t>& data) {
  put_vec(out, shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    put_int(out, data[i]);
    out += i + 1 == data.size() ? '\n' : ' ';
  }
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

void Reader::fail(const char* field, const std::string& what) const {
  std::string msg = name_ + ": '" + field + "' at byte " +
                    std::to_string(pos_) + ": " + what;
  std::size_t end = pos_;
  while (end < text_.size() && end - pos_ < 16 && !is_space(text_[end])) {
    ++end;
  }
  if (end > pos_) msg += ", got '" + text_.substr(pos_, end - pos_) + "'";
  t2c::fail(msg);
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
