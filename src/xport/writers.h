// Parameter extraction in hardware-facing formats (paper §3.4, Fig. 5):
//  * decimal text  — human-inspectable integer dumps,
//  * hexadecimal   — $readmemh-compatible memory images for RTL testbenches
//                    (fixed word width, two's complement),
//  * binary        — packed little-endian words for programmatic loaders.
// Every writer has a matching reader so bit-exact round-trips are testable,
// which is exactly what an RTL verification flow checks.
#pragma once

#include <string>
#include <vector>

#include "deploy/deploy_model.h"

namespace t2c {

// ---- decimal ----
void write_decimal(const std::string& path, const ITensor& t);
ITensor read_decimal(const std::string& path);

// ---- hexadecimal memory image ----
/// One `word_bits`-wide two's-complement word per line, upper-case hex,
/// preceded by a `// t2c` comment header carrying the shape. Values must
/// fit in word_bits (checked).
void write_hex(const std::string& path, const ITensor& t, int word_bits);
ITensor read_hex(const std::string& path, int word_bits);

// ---- packed binary ----
/// Little-endian int32 words with a small header (magic, rank, dims).
void write_binary(const std::string& path, const ITensor& t);
ITensor read_binary(const std::string& path);

/// PE-array memory unrolling: reorders an [OC, ...] weight tensor so that
/// output channels are interleaved across `tile` parallel lanes — the
/// layout a weight-stationary MAC array consumes row by row.
ITensor unroll_tiled(const ITensor& w, int tile);

/// Minimum word width (bits, two's complement) that can hold every value.
int required_word_bits(const ITensor& t);
/// The same width for values spanning [lo, hi].
int required_word_bits(std::int64_t lo, std::int64_t hi);

/// Filesystem-safe memory-image stem for an op label ('/', ' ', ':' become
/// '_'; empty labels become "op"). Shared by the weight-image exporter and
/// the audit golden-vector dump so both lay out files identically.
std::string memory_image_name(const std::string& label);

/// One memory image written by export_hex_images.
struct HexImage {
  std::string path;
  std::size_t op = 0;      ///< index of the deploy op it holds
  std::string label;       ///< op label (+ ".wqkv" / ".wproj" / ".lut")
  int width = 0;           ///< word width in bits
  std::int64_t depth = 0;  ///< words
  Shape shape;             ///< shape of the exported tensor
};

/// Exports every weight/LUT tensor of a deploy model as hex memory images
/// into `dir` (one file per tensor, `NNN_<label>.hex`, at
/// max(word_bits, required_word_bits)); returns what was written, in
/// order.
std::vector<HexImage> export_hex_images(const DeployModel& dm,
                                        const std::string& dir,
                                        int word_bits);

}  // namespace t2c
