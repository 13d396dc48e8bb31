// Companion TU for test_obs.cpp, compiled with the PARGREEDY_OBS seam
// forced OFF (see the target_compile_definitions in tests/CMakeLists.txt
// note — the define below wins because it precedes the include). Every
// PG_OBS_* macro here must expand to nothing: the probe metric names
// must never reach the registry, which ObsSeam.CompiledOutTuIsNoOp in
// the companion (seam-ON) TU asserts.
#define PARGREEDY_OBS 0
#include "obs/obs.hpp"

namespace pargreedy::obs {

void emit_disabled_seam_probes() {
  PG_OBS_COUNT("test.seam.counter", 1);
  PG_OBS_GAUGE("test.seam.gauge", 7);
  PG_OBS_HIST("test.seam.hist", 42);
  // Labeled counters and the flight-recorder surface compile out too:
  // no labeled series registered, no spans or events recorded, and the
  // correlation scopes reduce to ((void)0) so they cost nothing.
  PG_OBS_COUNT_L("test.seam.counter", "shard", "0", 1);
  PG_OBS_SPAN(span, kTxnBegin);
  PG_OBS_SPAN1(span1, kTxnApply, 1);
  PG_OBS_SPAN2(span2, kDecide, 1, 2);
  PG_OBS_SPAN_OUT1(span1, 3);
  PG_OBS_SPAN_OUT2(span2, 3, 4);
  PG_OBS_EVENT2(kTxnEpochFail, 1, 2);
  PG_OBS_EVENT_DUMP("test_seam");
  PG_OBS_BATCH_SCOPE(seam_batch);
  PG_OBS_TXN_SCOPE(seam_txn, 9);
}

}  // namespace pargreedy::obs
