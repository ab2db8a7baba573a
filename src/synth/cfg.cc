#include "synth/cfg.h"

namespace revnic::synth {

const char* FunctionTypeName(FunctionType type) {
  switch (type) {
    case FunctionType::kHardwareOnly:
      return "hardware-only";
    case FunctionType::kOsGlue:
      return "os-glue";
    case FunctionType::kMixed:
      return "mixed";
    case FunctionType::kPureCompute:
      return "pure-compute";
  }
  return "?";
}

size_t RecoveredModule::NumFullyAutomatic() const {
  size_t n = 0;
  for (const auto& [pc, f] : functions) {
    if (!f.has_os_calls) {
      ++n;
    }
  }
  return n;
}

size_t RecoveredModule::NumNeedingManualGlue() const {
  return functions.size() - NumFullyAutomatic();
}

size_t RecoveredModule::NumMixed() const {
  size_t n = 0;
  for (const auto& [pc, f] : functions) {
    if (f.type == FunctionType::kMixed) {
      ++n;
    }
  }
  return n;
}

}  // namespace revnic::synth
