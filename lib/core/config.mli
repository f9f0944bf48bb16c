(** Configuration of the SoftBound transformation and runtime. *)

(** Checking mode (paper sections 1 and 6.3).

    [Full_checking] inserts a bounds check before every load and store —
    complete spatial-violation detection.  [Store_only] fully propagates
    all metadata but checks only memory writes — sufficient to stop
    memory-corruption exploits (which need at least one out-of-bounds
    write) at a much lower overhead. *)
type mode = Full_checking | Store_only

(** Metadata organization: {!Interp.State.meta_facility}, which
    documents the paper's two organizations (section 5.1) and the three
    related-work placements. *)
type facility = Interp.State.meta_facility =
  | Hash_table
  | Shadow_space
  | Obj_header
  | Frame_tag
  | Wide_inline

type options = {
  mode : mode;
  facility : facility;
  shrink_bounds : bool;
      (** narrow bounds when creating pointers to struct fields
          (section 3.1, "Shrinking Pointer Bounds"); turning this off
          reproduces the sub-object blindness of object-table tools *)
  memcpy_heuristic : bool;
      (** skip the metadata copy for memcpy calls whose static operand
          types are pointer-free (section 5.2, "Memcpy") *)
  clear_stack_meta : bool;
      (** zero the metadata of pointer-holding stack slots before
          returning (section 5.2, "Memory reuse and stale metadata") *)
  clear_free_meta : bool;
      (** zero the metadata of pointer-bearing heap blocks on free *)
  fptr_signatures : bool;
      (** the paper's future-work extension (section 5.2, "Function
          pointers"): dynamically check that the pointer/non-pointer
          signature of an indirect callee matches the call site *)
  prune_liveness : bool;
      (** drop metadata that no check/call/return/store can observe —
          standing in for the paper's re-run of LLVM's optimizers over
          the instrumented code (section 6.1) *)
  eliminate_checks : bool;
      (** run the redundant-check elimination / metadata-lookup
          hoisting pass ({!Elim}) over the instrumented code — the
          redundancy half of the section 6.1 optimizer re-run
          ([prune_liveness] is the liveness half) *)
  widen_checks : bool;
      (** within {!Elim}, run the induction-variable check-widening and
          in-block coalescing sub-passes (SCEV-lite loop span checks).
          Off (CLI [--no-widen]) keeps hoisting/CSE but leaves every
          per-iteration check in place — the widening ablation's
          control configuration.  No effect when [eliminate_checks] is
          off. *)
}

val default : options
(** Full checking, shadow space, every paper behaviour on,
    [fptr_signatures] off (matching the paper's prototype). *)

val store_only : options
(** [default] with [mode = Store_only]. *)

val facility_name : facility -> string

val facility_inputs : (string * facility) list
(** Input spelling of every facility ([shadow], [hash], [obj-header],
    [frame-tag], [wide-inline]), shared by the CLI's [--facility] and
    the serve protocol's [facility] field. *)

val mode_name : mode -> string

(** Execution engine for the simulated machine (re-export of
    {!Interp.State.engine}).  Both engines produce bit-identical
    simulated outputs; [Eng_closure] (the default) runs threaded code
    compiled at load time, [Eng_decode] walks the pre-decoded
    instruction arrays and serves as the differential reference. *)
type engine = Interp.State.engine = Eng_decode | Eng_closure

val engine_name : engine -> string
val engine_of_string : string -> engine option
