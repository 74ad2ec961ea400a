// Buffered text codec for every text artifact the toolkit writes or reads:
// the integer checkpoint (xport/checkpoint.h), the $readmemh hex images and
// decimal dumps (xport/writers.h), and pass_dedup's parameter fingerprints.
//
// Writing appends to a std::string with std::to_chars — no locale, no
// stream state, no per-element allocation — and produces exactly the
// characters the classic iostream expressions produced (tests/test_textio
// pins this), so the on-disk formats are unchanged.
//
// Reading holds the whole file in memory and walks it with a cursor that
// parses through std::from_chars. Every read is checked; a failure throws
// t2c::Error naming the file, the field and the byte offset, e.g.
//   t2c: load_checkpoint model.t2c: 'IntConv2d weight' at byte 5123:
//   expected an integer, got 'q7'
// The message is only built on failure. Element counts are bounded by the
// bytes left in the text before anything is allocated, so a corrupted
// size field cannot trigger a huge allocation.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace t2c::textio {

// ---- writing ----

/// Decimal integer, the text of `os << v`.
void put_int(std::string& out, std::int64_t v);
/// `%.9g` (max_digits10 for float): the text of
/// `os << std::setprecision(9) << v`; round-trips bit-exactly.
void put_float(std::string& out, float v);
/// `raw` in upper-case hex, zero-padded to at least `digits` characters.
void put_hex(std::string& out, std::uint64_t raw, int digits);
/// Space-separated integers ending in '\n' (a lone '\n' when empty).
void put_line(std::string& out, std::initializer_list<std::int64_t> vals);

/// Checkpoint vector field: "n v0 v1 ...\n".
template <typename Int>
void put_vec(std::string& out, const std::vector<Int>& v) {
  put_int(out, static_cast<std::int64_t>(v.size()));
  for (const Int x : v) {
    out += ' ';
    put_int(out, x);
  }
  out += '\n';
}

/// Checkpoint tensor field: the shape as a vector field ("rank d0 d1
/// ...\n"), then "v0 v1 ...\n" (no data line when `data` is empty).
void put_tensor(std::string& out, const std::vector<std::int64_t>& shape,
                const std::vector<std::int64_t>& data);

// ---- whole-file I/O ----

/// The file's bytes, read with one sized read; `who` prefixes errors.
std::string read_file(const std::string& path, const char* who);
/// Replaces the file with `text` in one write; `who` prefixes errors.
void write_file(const std::string& path, const std::string& text,
                const char* who);

// ---- reading ----

/// The element count of `shape` when every dim is non-negative and the
/// product is at most `room`, else -1. The product never overflows, so a
/// reader can check a shape header against the bytes it has before it
/// allocates anything.
std::int64_t bounded_numel(const std::vector<std::int64_t>& shape,
                           std::int64_t room);

/// Checked cursor over a text. Tokens are separated by whitespace; a
/// number must be followed by whitespace or the end of the text.
class Reader {
 public:
  /// `name` (typically "<who> <path>") prefixes every diagnostic.
  Reader(std::string text, std::string name);
  /// Reads `path` whole; diagnostics are prefixed "<who> <path>".
  static Reader from_file(const std::string& path, const char* who);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  std::int64_t i64(const char* field);
  int i32(const char* field);
  /// i32 constrained to [lo, hi].
  int i32_in(const char* field, int lo, int hi);
  float f32(const char* field);
  /// Hexadecimal word (no prefix, either case).
  std::uint64_t hex(const char* field);
  /// Next whitespace-delimited token; fails at the end of the text. The
  /// view lives as long as the reader.
  std::string_view token(const char* field);
  /// Consumes the next token, which must equal `word`.
  void expect(const char* word);
  /// True when the next token equals `word` (nothing is consumed).
  bool next_is(std::string_view word);
  /// Consumes `prefix` when the text continues with it (after whitespace).
  bool consume(std::string_view prefix);

  /// Element count: non-negative and small enough that that many
  /// separated elements still fit in the rest of the text.
  std::size_t count(const char* field);
  /// "n v0 v1 ..." as written by put_vec (Int is int or std::int64_t).
  template <typename Int>
  std::vector<Int> vec(const char* field);
  /// The shape line of a put_tensor field (rank 1..8).
  std::vector<std::int64_t> shape(const char* field);
  /// The product-of-`shape` integers that follow it; dims must be
  /// non-negative and the product must fit in the rest of the text.
  std::vector<std::int64_t> values(const std::vector<std::int64_t>& shape,
                                   const char* field);

  /// Skips blanks on the current line; true when a token follows on it.
  bool more_on_line();
  /// Skips the rest of the current line, newline included.
  void skip_line();
  /// Requires only blanks up to the end of the current line, consumes it.
  void end_line(const char* field);
  /// Skips all whitespace; true when the text is exhausted.
  bool done();

  /// Throws t2c::Error "<name>: '<field>' at byte <offset>: <what>, got
  /// '<text at the offset>'".
  [[noreturn]] void fail(const char* field, const std::string& what) const;

 private:
  void skip_ws();
  template <typename Int>
  Int integer(const char* field, int base);
  /// Most separated elements the rest of the text can hold: each takes at
  /// least one digit and one separator.
  std::int64_t budget() const;

  std::string text_;
  std::string name_;
  std::size_t pos_ = 0;
};

}  // namespace t2c::textio
