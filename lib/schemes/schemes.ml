(* Registry of protection schemes for the N-scheme matrix.

   One place that names every scheme the harness and the differential
   oracle iterate over, together with the machine-checkable half of its
   documented completeness gap.  Two implementation shapes:

   - [Transform]: the SoftBound instrumentation run with the scheme's
     option profile (its metadata facility and bounds granularity) —
     the transformed program checks itself.
   - [Plugin]: a baseline checker observing the *unprotected* module's
     allocation/access/arithmetic events ({!Interp.State.checker}).

   The [misses_sub_object] flag is the Table 4 story: whole-object
   bounds cannot see an overflow that stays inside the allocation, so
   the oracle *requires* those schemes to stay silent on sub-object
   attacks (a trap there means the model, or the scheme, is wrong).
   [guaranteed_detect] marks schemes whose detection of an injected
   out-of-bounds access is landing-independent (per-pointer provenance
   bounds travel with the pointer); plugin schemes' verdicts depend on
   where the stray access happens to land, so the oracle only holds
   them to agreeing with the unprotected run when they don't trap —
   their exact coverage cells are pinned by the fixed attack-matrix
   unit tests instead. *)

(* [schemes] is the library's root module; re-export the submodules. *)
module Cguard = Cguard
module Framer = Framer
module L4_pointer = L4_pointer

type impl =
  | Transform of Softbound.Config.options
  | Plugin of (unit -> Interp.State.checker)

type entry = {
  sname : string;
  impl : impl;
  misses_sub_object : bool;
      (** whole-object bounds: must NOT trap on intra-object overflows *)
  guaranteed_detect : bool;
      (** must trap on every injected non-sub-object OOB access *)
  summary : string;
}

(** Every matrix scheme beyond the SoftBound configurations themselves,
    in report order (BENCH_schemes.json's columns).  Each [sname] is
    also the scheme's request name (CLI [--checker], serve [scheme]).
    A function because the CGuard entry reads its test hook at call
    time. *)
let all () : entry list =
  [
    {
      sname = "mscc";
      impl = Transform Baselines.Mscc.options;
      misses_sub_object = true;
      guaranteed_detect = true;
      summary =
        "MSCC-style pointer-chasing metadata (hash facility, no bounds \
         shrinking, no cleanup passes)";
    };
    {
      sname = Cguard.name;
      impl = Transform (Cguard.options ());
      misses_sub_object = true;
      guaranteed_detect = true;
      summary = Cguard.summary;
    };
    {
      sname = Framer.name;
      impl = Transform (Framer.options ());
      misses_sub_object = true;
      guaranteed_detect = true;
      summary = Framer.summary;
    };
    {
      sname = L4_pointer.name;
      impl = Transform (L4_pointer.options ());
      misses_sub_object = true;
      guaranteed_detect = true;
      summary = L4_pointer.summary;
    };
    {
      sname = "jones-kelly";
      impl = Plugin Baselines.Jones_kelly.make;
      misses_sub_object = true;
      guaranteed_detect = false;
      summary =
        "object-table (splay-tree) referent checking of pointer \
         arithmetic; detection depends on where the access lands";
    };
    {
      sname = "memcheck-like";
      impl = Plugin Baselines.Memcheck_like.make;
      misses_sub_object = true;
      guaranteed_detect = false;
      summary =
        "heap-only redzone addressability checking; stack and \
         in-bounds-of-another-block accesses pass";
    };
    {
      sname = "mudflap-like";
      impl = Plugin Baselines.Mudflap_like.make;
      misses_sub_object = true;
      guaranteed_detect = false;
      summary =
        "object-database access checking at object granularity; \
         accesses landing inside any live object pass";
    };
  ]

let find name = List.find_opt (fun e -> e.sname = name) (all ())
let names () = List.map (fun e -> e.sname) (all ())

(** [find] for names fixed in code; an unknown name is a programming
    error. *)
let get name =
  match find name with
  | Some e -> e
  | None -> invalid_arg ("Schemes.get: no scheme " ^ name)

(** Run [entry] on an uninstrumented module, producing the same
    [Vm.result] shape every other configuration produces.  Transform
    entries instrument and run; plugin entries run the module unchanged
    with the checker observing. *)
let run ?(cfg = Interp.State.default_config) (e : entry) (m : Sbir.Ir.modul)
    : Interp.Vm.result =
  match e.impl with
  | Transform opts -> Softbound.run_protected ~opts ~cfg m
  | Plugin mk ->
      Softbound.run_unprotected ~cfg:{ cfg with checker = Some (mk ()) } m

(** Did the run trap with this scheme's violation flavor?  Transform
    schemes raise SoftBound bounds violations; plugins raise
    object-table violations. *)
let detected (r : Interp.Vm.result) =
  match r.Interp.Vm.outcome with
  | Interp.State.Trapped (Interp.State.Bounds_violation _)
  | Interp.State.Trapped (Interp.State.Object_violation _) ->
      true
  | _ -> false

(** The fixed attack suite of the completeness-gap matrix (Table 4's
    axes): one attack per spatial-violation class, each a complete
    MiniC program whose only violation is the attack itself.  The
    coverage experiment and the gap-matrix unit tests both run every
    scheme over exactly these. *)
let gap_attacks : (string * string) list =
  [
    ( "sub-object-overflow",
      (* overflows the [str] field into the adjacent [guard] field of
         the same struct: inside the allocation, so only shrunken
         per-pointer bounds can see it *)
      "struct node { char str[8]; long guard; };\n\
       int main(void) {\n\
      \  struct node n;\n\
      \  char *p = n.str;\n\
      \  n.guard = 0;\n\
      \  p[9] = 'x';\n\
      \  return (int)n.guard != 0;\n\
       }\n" );
    ( "adjacent-heap-overflow",
      (* classic one-block heap overflow: writes past the end of a
         malloc'd block *)
      "int main(void) {\n\
      \  char *p = (char *)malloc(8);\n\
      \  p[0] = 1;\n\
      \  p[10] = 1;\n\
      \  free(p);\n\
      \  return 0;\n\
       }\n" );
    ( "heap-underflow",
      (* writes below the start of a malloc'd block *)
      "int main(void) {\n\
      \  char *p = (char *)malloc(8);\n\
      \  p[0] = 1;\n\
      \  p[-3] = 1;\n\
      \  free(p);\n\
      \  return 0;\n\
       }\n" );
    ( "off-by-one-read",
      (* reads one element past a stack array: no write, so store-only
         checking is blind to it by design *)
      "int main(void) {\n\
      \  int a[8];\n\
      \  int i;\n\
      \  for (i = 0; i < 8; i = i + 1) a[i] = i;\n\
      \  int x = a[8];\n\
      \  return x & 0;\n\
       }\n" );
  ]
