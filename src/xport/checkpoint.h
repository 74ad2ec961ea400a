// Integer-only model checkpoint: the "vanilla" serialized form of a
// DeployModel (paper §3.4 — analogous to the torch.qint export). A single
// file captures the whole graph — ops, fixed-point parameters, integer
// weights, LUTs — and loads back into a bit-identical DeployModel. Format
// T2C-DEPLOY-V2 is text (header, op lines, scalars, shapes, small vectors)
// except for each weight tensor's body, a checksummed binary block at the
// narrowest byte width its values need (util/textio.h). V1 files, whose
// bodies are decimal text, still load; only V2 is written.
#pragma once

#include <string>

#include "deploy/deploy_model.h"

namespace t2c {

void save_checkpoint(const DeployModel& dm, const std::string& path);

/// Throws t2c::Error naming the field and byte offset when the file is
/// truncated or malformed (util/textio.h), or naming the op and its offset
/// when an op's constructor rejects its fields; size fields and block
/// lengths are bounded by the file's length before anything is allocated.
DeployModel load_checkpoint(const std::string& path);

}  // namespace t2c
