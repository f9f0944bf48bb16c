(** Redundant-check elimination, metadata-lookup hoisting and metadata
    copy cleanup over SoftBound-instrumented IR — the cleanup the paper
    gets by re-running LLVM's standard optimizers after the
    transformation (section 6.1); [Config.prune_liveness] is the
    liveness half.

    {!elim_func} folds over one list of named sub-passes, in order:
    - [hoist]: loop-invariant hoisting of metadata lookups, metadata
      propagation, and (when loop entry provably implies they execute)
      bounds checks into loop preheaders;
    - [widen]: induction-variable check {e widening}, which replaces the
      per-iteration checks of a counted loop whose addresses are affine
      in the induction variable ({!Sbir.Scev}) by one preheader
      [CheckSpan] over the whole progression;
    - [coalesce]: within-block {e coalescing} of same-base
      constant-offset checks ([a[i]] and [a[i+1]] share one span);
    - [metaload-cse]: within-block reuse of an earlier [MetaLoad] from
      the same address;
    - [check-cse]: a forward available-checks dataflow that drops a
      [Check] reached by an identical dominating check of at least its
      width with no intervening redefinition;
    - [check-vn]: the same, comparing the {e values} of the operands
      rather than their registers — a forward must-dataflow numbers each
      register a check reads as a term over other registers' current
      contents, with [gep x + c] and 64-bit adds folded to a root plus
      a byte offset — so the load and the store of [p[k] = p[k] + 1],
      whose addresses lowering derives into two registers, need one
      check;
    - [copy-coalesce]: a metadata temp defined once and copied once, in
      one block, is defined straight into the copy's destination;
    - [copy-prop]: a forward available-copies dataflow replaces each
      read of a metadata register holding a copy by the copy's source;
    - [dead-meta]: pure instructions that define only dead metadata
      registers are deleted.

    Elimination never weakens detection: a dropped check is implied by
    one that already ran, a hoisted check aborts exactly when its first
    in-loop execution would have, and a span traps — at the same
    address, site and message — exactly when some covered original
    check would have.  Check-cse and check-vn remove checks and nothing
    else.  The last three passes, the {e copy cleanup},
    read and write only registers the transformation introduced and
    delete only pure register instructions, so the memory trace is
    unchanged and the cycle count can only go down (DESIGN.md section
    12).

    Enabled by {!Config.options.eliminate_checks} (default on);
    disabling it reproduces the uncleaned instrumentation for the
    ablation experiment.  {!Config.options.widen_checks} (CLI
    [--no-widen]) gates the widening and coalescing sub-passes alone,
    for the ablation's control rows. *)

module Ir = Sbir.Ir

val elim_func :
  meta_floor:int ->
  ?widen:bool ->
  ?cleanup:bool ->
  ?value_numbering:bool ->
  ?record:(string -> int -> unit) ->
  Ir.func ->
  Ir.func
(** Optimize one instrumented function.  [meta_floor] is the function's
    register count {e before} instrumentation: registers at or above it
    were introduced by the transformation, which is how the pass tells
    metadata propagation (hoisted eagerly, and the only thing the copy
    cleanup touches) from program computation (hoisted only as a
    dependency of hoisted instrumentation, keeping the overhead
    comparison against the uninstrumented baseline fair).  [cleanup]
    (default on) runs the copy cleanup and [value_numbering] (default
    on) the [check-vn] pass; tests turn them off to compare.  [record]
    is told, after each sub-pass that runs, its name and the number of
    static instructions it removed (negative when it added some, as
    widening's trip-count arithmetic does).

    A function that may call [setjmp] ({!Sbir.Ir.may_call_setjmp}) is
    returned unchanged: [longjmp] resumes after the [setjmp] call with
    registers the CFG does not show flowing there, so no sub-pass's
    dataflow is sound in it. *)

val pass_names : string list
(** The sub-passes of {!elim_func}, in the order they run. *)

val count_checks : Ir.func -> int
(** Static number of [Check]/[CheckFptr] instructions, for tests. *)

val count_metaloads : Ir.func -> int
(** Static number of [MetaLoad] instructions, for tests. *)

val count_widened : Ir.func -> int
(** Static number of loop-widened [CheckSpan] instructions (spans with
    no per-element site table). *)

val count_coalesced : Ir.func -> int
(** Static number of checks saved by in-block coalescing: for each
    multi-site span, its member count minus one. *)
