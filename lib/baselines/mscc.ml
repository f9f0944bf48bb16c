(* MSCC-style configuration (Xu, DuVarney & Sekar, FSE 2004) for the
   section 6.5 performance comparison.

   MSCC is a pointer-based source transformation, like SoftBound, but:
   - it keeps metadata in linked shadow structures rather than a flat
     shadow space — modelled by the hash-table facility (pointer-chasing
     lookups with tag checks);
   - in its best-performing configuration it loses sub-object overflow
     detection — modelled by disabling bounds shrinking;
   - it eschews whole-program analysis *and* the post-instrumentation
     cleanup SoftBound inherits from re-running LLVM's optimizers —
     modelled by disabling the metadata-liveness pruning, so every
     pointer's metadata is materialized and propagated whether or not a
     check can ever observe it;
   - it cannot handle arbitrary (wild) casts — reported as an attribute
     in the Table 1 probe, not modelled as a crash. *)

let options : Softbound.Config.options =
  {
    Softbound.Config.mode = Softbound.Config.Full_checking;
    facility = Softbound.Config.Hash_table;
    shrink_bounds = false;
    memcpy_heuristic = false;
    clear_stack_meta = true;
    clear_free_meta = true;
    fptr_signatures = false;
    prune_liveness = false;
    eliminate_checks = false;
    widen_checks = false;
  }
