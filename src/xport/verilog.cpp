#include "xport/verilog.h"

#include <filesystem>
#include <fstream>

#include "xport/writers.h"

namespace t2c {

namespace {

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_')) {
      c = '_';
    }
  }
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) != 0) {
    s = "m_" + s;
  }
  return s;
}

}  // namespace

std::string emit_verilog_testbench(const DeployModel& dm,
                                   const std::string& dir, int word_bits) {
  // The hex images must exist on disk; their records carry the widths.
  const std::vector<HexImage> images = export_hex_images(dm, dir, word_bits);
  // sanitize() maps the label's ".wqkv"/".lut" separators to '_'.
  const auto mem_name = [](const HexImage& img) {
    return sanitize("mem_" + std::to_string(img.op) + "_" + img.label);
  };

  const std::string path = dir + "/t2c_tb.sv";
  std::ofstream os(path);
  check(os.good(), "emit_verilog_testbench: cannot open " + path);
  os << "// Auto-generated by Torch2Chip-CPP: memory images for RTL\n"
     << "// verification. Hook the mem_* arrays up to the DUT's weight\n"
     << "// ports; every image round-trips bit-exactly with the integer\n"
     << "// checkpoint (model.t2c).\n"
     << "`timescale 1ns / 1ps\n\n"
     << "module t2c_tb;\n\n";
  for (const HexImage& img : images) {
    os << "  // shape " << shape_str(img.shape) << "\n";
    os << "  logic signed [" << img.width - 1 << ":0] " << mem_name(img)
       << " [0:" << img.depth - 1 << "];\n";
  }
  os << "\n  initial begin\n";
  for (const HexImage& img : images) {
    os << "    $readmemh(\""
       << std::filesystem::path(img.path).filename().string() << "\", "
       << mem_name(img) << ");\n";
  }
  os << "  end\n\nendmodule\n";
  check(os.good(), "emit_verilog_testbench: write failed");
  return path;
}

}  // namespace t2c
