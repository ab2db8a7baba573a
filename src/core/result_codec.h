// The one wire layout of an EngineResult: every exercise-stage field the
// downstream stages, the canonical merge and the run reports consume.
//
// An "RCP1" checkpoint (core/session.cc) carries it: magic, version, label,
// this layout, then the optional final-state RSS1 snapshot. Changing the
// layout means bumping the checkpoint version and the exercise_pin_test
// RCP1 pins.
//
// Counter blocks are each struct's field list (util/fields.h). The
// runtime-only diagnostics (final_snapshot, parallel, error,
// snapshot_restore_failures) are not carried.
#ifndef REVNIC_CORE_RESULT_CODEC_H_
#define REVNIC_CORE_RESULT_CODEC_H_

#include <string>

#include "core/engine.h"
#include "trace/serialize.h"

namespace revnic::core {

void WriteEngineResult(trace::ByteWriter& w, const EngineResult& e);

// Decodes in place into *e, which must be default-constructed. Fails closed
// with *error set on truncation or an implausible count; never aborts. The
// substrate's fault fields are derived from the decoded FaultStats.
bool ReadEngineResult(trace::ByteReader& r, EngineResult* e, std::string* error);

}  // namespace revnic::core

#endif  // REVNIC_CORE_RESULT_CODEC_H_
