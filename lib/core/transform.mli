(** The SoftBound compile-time transformation (paper section 3).

    An IR-to-IR pass: renames every function to [_sb_<name>] with
    appended base/bound parameters for pointer parameters (pointer
    returns become triples), associates metadata registers with every
    pointer-valued virtual register, inserts bounds checks per the
    checking mode, rewrites call sites (wrappers for externals,
    function-pointer checks for indirect calls), narrows bounds at
    struct-field address creation, emits the global-metadata
    initializer, and clears stale metadata at returns and frees.

    See the implementation header for the full correspondence to the
    paper's sections. *)

module Ir = Sbir.Ir

val sb_prefix : string
val sb_name : string -> string
val global_init_name : string
(** Name of the synthesized initializer installing metadata for
    statically initialized pointer globals (section 5.2); the VM runs it
    before [main] when present. *)

val transform :
  ?discharge:bool -> ?opts:Config.options -> Ir.modul -> Ir.modul
(** Instrument a module.  Raises [Invalid_argument] if the module
    already contains instrumentation instructions.  [discharge] (default
    on) skips the check of every access {!Sbir.Range} proves inside the
    static extent of a global or stack slot (only when
    [opts.prune_liveness], the static cleanup, is on); tests turn it off
    to compare. *)

val transform_with_sites :
  ?discharge:bool ->
  ?opts:Config.options ->
  ?record:(string -> int -> unit) ->
  Ir.modul ->
  Ir.modul * int
(** Like {!transform}, additionally returning the number of
    instrumentation sites assigned.  Site ids ([1..n], stamped on
    [Check]/[CheckFptr]/[MetaLoad]/[MetaStore]) are handed out in
    emission order before any elimination runs, so the numbering — and
    this count — is identical whether [eliminate_checks] is on or off;
    elided sites are exactly the assigned ids missing from the returned
    module.  A discharged access uses up its site id too.  [record]
    is passed to {!Elim.elim_func} for every function.

    Before anything else, every indirect call of a module that never
    takes [setjmp]'s address gets {!Sbir.Ir.no_setjmp_hint}, so the
    static discharge and {!Elim} skip only functions where [setjmp] can
    run. *)

val pass_stats : ?opts:Config.options -> Ir.modul -> (string * int) list
(** The number of static instructions each {!Elim} sub-pass removes
    from the module under [opts], summed over its functions, for every
    name of {!Elim.pass_names} in order.  Widening adds trip-count
    arithmetic, so its entry can be negative. *)

val count_discharged : ?opts:Config.options -> Ir.modul -> int
(** How many accesses of an uninstrumented module {!transform} would
    leave unchecked because they are proven in bounds. *)
