#include "xport/writers.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "deploy/int_ops.h"
#include "deploy/vit_ops.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/textio.h"

namespace t2c {

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  check(os.good(), "cannot open for writing: " + path);
  return os;
}

void put_shape_line(std::string& out, const ITensor& t, const char* prefix) {
  out += prefix;
  out += " shape";
  for (const std::int64_t d : t.shape()) {
    out += ' ';
    textio::put_int(out, d);
  }
  out += '\n';
}

/// The dims after a "shape" keyword, up to the end of the line.
Shape read_shape_line(textio::Reader& r) {
  r.expect("shape");
  Shape shape;
  while (r.more_on_line()) shape.push_back(r.i64("shape"));
  if (shape.empty()) r.fail("shape", "empty shape header");
  return shape;
}

}  // namespace

void write_decimal(const std::string& path, const ITensor& t) {
  std::string out;
  put_shape_line(out, t, "#");
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    textio::put_int(out, t[i]);
    out += '\n';
  }
  textio::write_file(path, out, "write_decimal");
}

ITensor read_decimal(const std::string& path) {
  auto r = textio::Reader::from_file(path, "read_decimal");
  r.expect("#");
  Shape shape = read_shape_line(r);
  std::vector<std::int64_t> data = r.values(shape, "value");
  return ITensor::from(std::move(shape), std::move(data));
}

void write_hex(const std::string& path, const ITensor& t, int word_bits) {
  check(word_bits >= 2 && word_bits <= 32, "write_hex: word_bits in [2,32]");
  const std::int64_t lo = -(std::int64_t{1} << (word_bits - 1));
  const std::int64_t hi = (std::int64_t{1} << (word_bits - 1)) - 1;
  const int digits = (word_bits + 3) / 4;
  const std::uint64_t mask = (std::uint64_t{1} << word_bits) - 1;
  std::string out;
  out.reserve(static_cast<std::size_t>(t.numel()) * (digits + 1) + 64);
  put_shape_line(out, t, "//");
  out += "// word_bits ";
  textio::put_line(out, {word_bits});
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (t[i] < lo || t[i] > hi) {
      fail("write_hex: value does not fit in " + std::to_string(word_bits) +
           " bits");
    }
    textio::put_hex(out, static_cast<std::uint64_t>(t[i]) & mask, digits);
    out += '\n';
  }
  textio::write_file(path, out, "write_hex");
}

ITensor read_hex(const std::string& path, int word_bits) {
  check(word_bits >= 2 && word_bits <= 32, "read_hex: word_bits in [2,32]");
  auto r = textio::Reader::from_file(path, "read_hex");
  const std::uint64_t mask = (std::uint64_t{1} << word_bits) - 1;
  const std::uint64_t sign_bit = std::uint64_t{1} << (word_bits - 1);
  Shape shape;
  std::vector<std::int64_t> values;
  while (!r.done()) {
    if (r.consume("//")) {
      if (r.more_on_line() && r.next_is("shape")) shape = read_shape_line(r);
      r.skip_line();
      continue;
    }
    const std::uint64_t raw = r.hex("word");
    if (raw > mask) r.fail("word", "wider than word_bits");
    r.end_line("word");
    values.push_back((raw & sign_bit) != 0
                         ? static_cast<std::int64_t>(raw) -
                               static_cast<std::int64_t>(mask) - 1
                         : static_cast<std::int64_t>(raw));
  }
  check(!shape.empty(), "read_hex: missing shape header in " + path);
  const auto words = static_cast<std::int64_t>(values.size());
  check(textio::bounded_numel(shape, words) == words,
        "read_hex: shape header " + shape_str(shape) + " does not match the " +
            std::to_string(words) + " words in " + path);
  return ITensor::from(shape, std::move(values));
}

namespace {
constexpr std::uint32_t kBinMagic = 0x54324321u;  // "T2C!"
}

void write_binary(const std::string& path, const ITensor& t) {
  auto os = open_out(path);
  const auto put32 = [&](std::uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put32(kBinMagic);
  put32(static_cast<std::uint32_t>(t.rank()));
  for (int d = 0; d < t.rank(); ++d) {
    put32(static_cast<std::uint32_t>(t.size(d)));
  }
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const auto v = static_cast<std::int32_t>(t[i]);
    check(static_cast<std::int64_t>(v) == t[i],
          "write_binary: value exceeds int32 range");
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
}

ITensor read_binary(const std::string& path) {
  const std::string bytes = textio::read_file(path, "read_binary");
  std::size_t pos = 0;
  const auto get32 = [&]() {
    std::uint32_t v = 0;
    if (bytes.size() - pos < sizeof(v)) {
      fail("read_binary: truncated file " + path);
    }
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  check(get32() == kBinMagic, "read_binary: bad magic in " + path);
  const auto rank = static_cast<int>(get32());
  check(rank >= 1 && rank <= 8, "read_binary: implausible rank");
  Shape shape;
  for (int d = 0; d < rank; ++d) {
    shape.push_back(static_cast<std::int64_t>(get32()));
  }
  // Every element is one 4-byte word, so the header may claim no more
  // elements than the words left in the file.
  const auto words = static_cast<std::int64_t>((bytes.size() - pos) / 4);
  check(textio::bounded_numel(shape, words) >= 0,
        "read_binary: shape " + shape_str(shape) + " exceeds the " +
            std::to_string(words) + " words in " + path);
  ITensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<std::int32_t>(get32());
  }
  return t;
}

ITensor unroll_tiled(const ITensor& w, int tile) {
  check(w.rank() >= 1 && tile >= 1, "unroll_tiled: bad arguments");
  const std::int64_t oc = w.size(0);
  const std::int64_t per = w.numel() / oc;
  ITensor out({w.numel()});
  std::int64_t pos = 0;
  for (std::int64_t base = 0; base < oc; base += tile) {
    const std::int64_t lanes = std::min<std::int64_t>(tile, oc - base);
    // Row-by-row across the active lanes: the order a weight-stationary
    // array streams its weights.
    for (std::int64_t i = 0; i < per; ++i) {
      for (std::int64_t lane = 0; lane < lanes; ++lane) {
        out[pos++] = w[(base + lane) * per + i];
      }
    }
  }
  return out;
}

int required_word_bits(const ITensor& t) {
  std::int64_t mx = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    mx = std::max(mx, t[i] >= 0 ? t[i] : -(t[i] + 1));
  }
  int bits = 2;
  while (((std::int64_t{1} << (bits - 1)) - 1) < mx) ++bits;
  return bits;
}

std::string memory_image_name(const std::string& label) {
  std::string name = label.empty() ? "op" : label;
  for (char& c : name) {
    if (c == '/' || c == ' ' || c == ':') c = '_';
  }
  return name;
}

std::vector<HexImage> export_hex_images(const DeployModel& dm,
                                        const std::string& dir,
                                        int word_bits) {
  std::filesystem::create_directories(dir);
  std::vector<HexImage> written;
  const auto emit = [&](std::size_t idx, std::string label,
                        const ITensor& t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%03zu_", idx);
    HexImage img;
    img.path = dir + "/" + buf + memory_image_name(label) + ".hex";
    img.op = idx;
    img.label = std::move(label);
    img.width = std::max(word_bits, required_word_bits(t));
    img.depth = t.numel();
    img.shape = t.shape();
    write_hex(img.path, t, img.width);
    obs::log_trace("xport: wrote ", img.path, " (", img.depth, " words, ",
                   img.width, " bits)");
    written.push_back(std::move(img));
  };
  const auto lut_tensor = [](const std::vector<std::int64_t>& lut) {
    return ITensor::from({static_cast<std::int64_t>(lut.size())}, lut);
  };
  for (std::size_t i = 0; i < dm.num_ops(); ++i) {
    const DeployOp& op = dm.op(i);
    if (const auto* conv = dynamic_cast<const IntConv2dOp*>(&op)) {
      emit(i, op.label, conv->weight());
    } else if (const auto* lin = dynamic_cast<const IntLinearOp*>(&op)) {
      emit(i, op.label, lin->weight());
    } else if (const auto* attn = dynamic_cast<const IntAttentionOp*>(&op)) {
      emit(i, op.label + ".wqkv", attn->params().wqkv);
      emit(i, op.label + ".wproj", attn->params().wproj);
    } else if (const auto* sm = dynamic_cast<const LutSoftmaxOp*>(&op)) {
      emit(i, op.label + ".lut", lut_tensor(sm->lut()));
    } else if (const auto* ge = dynamic_cast<const LutGeluOp*>(&op)) {
      emit(i, op.label + ".lut", lut_tensor(ge->lut()));
    }
  }
  if (obs::metrics_enabled()) {
    obs::metrics().counter("xport.files_written")
        .add(static_cast<std::int64_t>(written.size()));
  }
  obs::log_debug("xport: ", written.size(), " hex images under ", dir);
  return written;
}

}  // namespace t2c
