// Integer-only model checkpoint: the "vanilla" serialized form of a
// DeployModel (paper §3.4 — analogous to the torch.qint export). A single
// text file captures the whole graph — ops, fixed-point parameters,
// integer weights, LUTs — and loads back into a bit-identical DeployModel.
#pragma once

#include <string>

#include "deploy/deploy_model.h"

namespace t2c {

void save_checkpoint(const DeployModel& dm, const std::string& path);

/// Throws t2c::Error naming the field and byte offset when the file is
/// truncated or malformed (util/textio.h); size fields are bounded by the
/// file's length before anything is allocated.
DeployModel load_checkpoint(const std::string& path);

}  // namespace t2c
