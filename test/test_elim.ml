(* Redundant-check elimination (Elim) tests.

   The pass must be invisible except in the instruction stream: every
   program — safe or attacking — behaves identically with
   [eliminate_checks] on and off, while the static and dynamic check
   counts only ever go down.  Detection completeness is re-asserted over
   the whole Wilander/BugBench matrix with elimination explicitly on,
   in both full and store-only modes. *)

let on = Softbound.Config.default (* eliminate_checks defaults to true *)
let off = { on with Softbound.Config.eliminate_checks = false }
let store_on = Softbound.Config.store_only

let store_off =
  { store_on with Softbound.Config.eliminate_checks = false }

let hash_on =
  { on with Softbound.Config.facility = Softbound.Config.Hash_table }

let tc name f = Alcotest.test_case name `Quick f

let static_checks opts src =
  let m = Softbound.instrument ~opts (Softbound.compile src) in
  Hashtbl.fold
    (fun _ f acc -> acc + Softbound.Elim.count_checks f)
    m.Sbir.Ir.mfuncs 0

let static_metaloads opts src =
  let m = Softbound.instrument ~opts (Softbound.compile src) in
  Hashtbl.fold
    (fun _ f acc -> acc + Softbound.Elim.count_metaloads f)
    m.Sbir.Ir.mfuncs 0

let runs opts src =
  Softbound.run_protected ~opts (Softbound.compile src)

(* ---- induction-variable widening (Elim passes 1b/1c) helpers ---- *)

let no_widen = { on with Softbound.Config.widen_checks = false }

(* Widening and coalescing are observed with the static discharge off:
   it proves the in-bounds local-array accesses below outright, which
   would leave no check for the loop passes to act on. *)
let undischarged opts src =
  Softbound.Transform.transform ~discharge:false ~opts (Softbound.compile src)

let fold_funcs opts src count =
  let m = undischarged opts src in
  Hashtbl.fold (fun _ f acc -> acc + count f) m.Sbir.Ir.mfuncs 0

let runs_undischarged opts src =
  Interp.Engine.run ~cfg:(Softbound.vm_config opts) (undischarged opts src)

let widened src = fold_funcs on src Softbound.Elim.count_widened
let coalesced src = fold_funcs on src Softbound.Elim.count_coalesced

(* A legality-refusal case: the named loop shape must keep all its
   per-iteration checks (no span emitted anywhere in the program), and
   behave identically anyway. *)
let refuses name src =
  tc ("widening refused: " ^ name) (fun () ->
      Alcotest.(check int) "no spans emitted" 0 (widened src + coalesced src);
      let a = runs on src and b = runs no_widen src in
      Alcotest.(check string) "outcome agrees"
        (Interp.State.string_of_outcome b.outcome)
        (Interp.State.string_of_outcome a.outcome);
      Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text)

(* The 500-program widening oracle: generated loop-heavy programs (the
   generator's affine scene plants canonical counted loops, and ~30% of
   cases carry an injected violation), run widen-on vs widen-off under
   a sampled engine x facility point.  Outcome, stdout, and the failing
   check's site id must be identical. *)
let obs_cfg =
  {
    Interp.State.default_config with
    Interp.State.obs_enabled = true;
    trace_depth = 1 lsl 12;
  }

let fail_site (r : Interp.Vm.result) =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Obs.E_check { site; ok = false; _ } -> Some site
      | _ -> acc)
    None
    (Obs.events r.Interp.Vm.obs)

let widen_agrees (index, eng, fac) =
  let engine =
    if eng then Interp.State.Eng_closure else Interp.State.Eng_decode
  in
  let facility =
    List.nth
      [
        Softbound.Config.Hash_table;
        Softbound.Config.Shadow_space;
        Softbound.Config.Obj_header;
        Softbound.Config.Frame_tag;
        Softbound.Config.Wide_inline;
      ]
      fac
  in
  let case = Fuzz.case_of ~seed:2027 ~index in
  let m =
    Softbound.compile (Cminus.Pretty.program_string case.Fuzz.Gen.prog)
  in
  let cfg = { obs_cfg with Interp.State.engine } in
  let run widen_checks =
    Softbound.run_protected
      ~opts:{ on with Softbound.Config.facility; widen_checks }
      ~cfg m
  in
  let a = run true and b = run false in
  Interp.State.string_of_outcome a.outcome
  = Interp.State.string_of_outcome b.outcome
  && a.stdout_text = b.stdout_text
  && fail_site a = fail_site b


(* ---- the metadata copy cleanup (Elim's copy-coalesce, copy-prop and
   dead-meta passes) ---- *)

(** Instrument with elimination off, then run [Elim.elim_func] on each
    function with the cleanup and value numbering on or off — what
    [Transform] does, with the two test-only switches exposed. *)
let with_elim ?(cleanup = true) ?(value_numbering = true) opts
    (m : Sbir.Ir.modul) : Sbir.Ir.modul =
  let mt =
    Softbound.Transform.transform
      ~opts:{ opts with Softbound.Config.eliminate_checks = false }
      m
  in
  let mfuncs = Hashtbl.copy mt.Sbir.Ir.mfuncs in
  Sbir.Ir.iter_funcs m (fun f0 ->
      let name = Softbound.Transform.sb_name f0.Sbir.Ir.fname in
      Hashtbl.replace mfuncs name
        (Softbound.Elim.elim_func ~meta_floor:f0.Sbir.Ir.fnregs
           ~widen:opts.Softbound.Config.widen_checks ~cleanup ~value_numbering
           (Hashtbl.find mfuncs name)));
  { mt with Sbir.Ir.mfuncs }

(** Each block's instructions minus the pure ones that write only
    metadata registers, with every metadata register they define
    renamed to one placeholder and every operand erased: the cleanup may
    delete only the former, and otherwise only renames metadata
    definitions and rewrites operands. *)
let program_view (m0 : Sbir.Ir.modul) (m : Sbir.Ir.modul) =
  let open Sbir.Ir in
  List.map
    (fun n ->
      let floor = (Hashtbl.find m0.mfuncs n).fnregs in
      let f = Hashtbl.find m.mfuncs (Softbound.Transform.sb_name n) in
      let reg r = if r >= floor then -1 else r in
      let erase _ = ImmI 0 in
      let meta_only i =
        (match i with
        | Mov _ | Bin _ | Cmp _ | Cast _ | Gep _ | Slotaddr _ -> true
        | _ -> false)
        && List.for_all (fun r -> r >= floor) (defs_of i)
      in
      let view i =
        match map_inst_operands erase i with
        | Call c -> Call { c with rets = List.map reg c.rets }
        | MetaLoad (a, b, x, s) -> MetaLoad (reg a, reg b, x, s)
        | Load (r, t, a) -> Load (reg r, t, a)
        | Mov (r, t, o) -> Mov (reg r, t, o)
        | Bin (r, o, t, a, b) -> Bin (reg r, o, t, a, b)
        | Cmp (r, o, t, a, b) -> Cmp (reg r, o, t, a, b)
        | Cast (r, t, t', o) -> Cast (reg r, t, t', o)
        | Gep (r, a, b, s) -> Gep (reg r, a, b, s)
        | Slotaddr (r, s) -> Slotaddr (reg r, s)
        | i -> i
      in
      Array.map
        (fun b ->
          ( List.filter_map
              (fun i -> if meta_only i then None else Some (view i))
              b.insts,
            map_term_operands erase b.term ))
        f.fblocks)
    m0.mfunc_order

let static_insts (m : Sbir.Ir.modul) =
  Hashtbl.fold
    (fun _ f acc ->
      Array.fold_left
        (fun a b -> a + List.length b.Sbir.Ir.insts)
        acc f.Sbir.Ir.fblocks)
    m.Sbir.Ir.mfuncs 0

(** Run [m_on] and [m_off] under [opts] and [cfg] and compare everything
    observable: outcome (with the trap message), stdout, trap site,
    heap, metadata operations, and dynamic checks by [checks]; the
    cycles of [m_on] must not exceed those of [m_off].  [None] when
    they agree. *)
let runs_disagree ?(cfg = obs_cfg) ~checks opts m_on m_off =
  let run m = Interp.Engine.run ~cfg:(Softbound.vm_config ~cfg opts) m in
  let a = run m_on and b = run m_off in
  let sa = a.Interp.Vm.stats and sb = b.Interp.Vm.stats in
  let out r = Interp.State.string_of_outcome r.Interp.Vm.outcome in
  let differ what x y =
    if x = y then None else Some (Printf.sprintf "%s: %s vs %s" what x y)
  in
  let int = string_of_int in
  let site = function None -> "-" | Some s -> int s in
  List.find_map Fun.id
    [
      differ "outcome" (out a) (out b);
      differ "stdout" a.Interp.Vm.stdout_text b.Interp.Vm.stdout_text;
      differ "trap site" (site (fail_site a)) (site (fail_site b));
      differ "heap_live" (int a.Interp.Vm.heap_live)
        (int b.Interp.Vm.heap_live);
      (if checks sa.Interp.State.checks sb.Interp.State.checks then None
       else
         Some
           (Printf.sprintf "checks: %d vs %d" sa.Interp.State.checks
              sb.Interp.State.checks));
      differ "meta_loads" (int sa.Interp.State.meta_loads)
        (int sb.Interp.State.meta_loads);
      differ "meta_stores" (int sa.Interp.State.meta_stores)
        (int sb.Interp.State.meta_stores);
      (if sa.Interp.State.cycles <= sb.Interp.State.cycles then None
       else
         Some
           (Printf.sprintf "on costs cycles (%d > %d)" sa.Interp.State.cycles
              sb.Interp.State.cycles));
    ]

(** The cleanup on and off: only metadata instructions differ, and runs
    agree with the same dynamic checks. *)
let cleanup_disagrees ?cfg opts (m0 : Sbir.Ir.modul) =
  let m_on = with_elim ~cleanup:true opts m0
  and m_off = with_elim ~cleanup:false opts m0 in
  if program_view m0 m_on <> program_view m0 m_off then
    Some "cleanup changed a non-metadata instruction"
  else runs_disagree ?cfg ~checks:( = ) opts m_on m_off

(** Value numbering ([check-vn]) on and off: runs agree, with no more
    dynamic checks on than off. *)
let vn_disagrees ?cfg opts (m0 : Sbir.Ir.modul) =
  runs_disagree ?cfg ~checks:( <= ) opts (with_elim opts m0)
    (with_elim ~value_numbering:false opts m0)

(** A one-block function over [nregs] registers, for hand-built IR. *)
let one_block_func ~nregs insts : Sbir.Ir.func =
  {
    Sbir.Ir.fname = "f";
    fparams = [];
    frets = [];
    fvariadic = false;
    fva_regs = None;
    fslots = [||];
    fframe_size = 0;
    fblocks = [| { Sbir.Ir.insts; term = Sbir.Ir.TRet [] } |];
    fnregs = nregs;
  }

let cleaned ~meta_floor f =
  (Softbound.Elim.elim_func ~meta_floor f).Sbir.Ir.fblocks.(0).Sbir.Ir.insts

let cleanup_oracle_size = 500

(** Static checks left in a hand-built function by Elim with value
    numbering on, then off. *)
let vn_checks (f : Sbir.Ir.func) =
  List.map
    (fun value_numbering ->
      Softbound.Elim.count_checks
        (Softbound.Elim.elim_func ~meta_floor:f.Sbir.Ir.fnregs
           ~value_numbering f))
    [ true; false ]

(** Hand-built functions for value numbering, with the static checks
    Elim keeps in each with value numbering on and off. *)
let vn_cases =
  let open Sbir.Ir in
  let chk r site = Check (Reg r, ImmI 0, ImmI 4096, 4, site) in
  [
    ( "64-bit offsets fold",
      one_block_func ~nregs:4
        [
          Load (0, P, ImmI 64);
          Gep (1, Reg 0, ImmI 4, None);
          Gep (2, Reg 1, ImmI 8, None);
          chk 2 1;
          Gep (3, Reg 0, ImmI 12, None);
          chk 3 2;
        ],
      [ 1; 2 ] );
    (* [%1 = %0 + 4] goes stale when [%0] is reloaded: it must not match
       the [%0 + 4] computed afterwards *)
    ( "a redefined root ends a value",
      one_block_func ~nregs:3
        [
          Load (0, P, ImmI 64);
          Gep (1, Reg 0, ImmI 4, None);
          Load (0, P, ImmI 72);
          Gep (2, Reg 0, ImmI 4, None);
          chk 2 1;
          chk 1 2;
        ],
      [ 2; 2 ] );
    (* the check of the old [%0 + 4] must not cover the new one *)
    ( "a redefined root ends a fact",
      one_block_func ~nregs:3
        [
          Load (0, P, ImmI 64);
          Gep (1, Reg 0, ImmI 4, None);
          chk 1 1;
          Load (0, P, ImmI 72);
          Gep (2, Reg 0, ImmI 4, None);
          chk 2 2;
        ],
      [ 2; 2 ] );
    (* [x +i32 1] wraps where [x +i64 1] does not *)
    ( "an i32 add is not an offset",
      one_block_func ~nregs:3
        [
          Load (0, I64, ImmI 64);
          Bin (1, Add, I32, Reg 0, ImmI 1);
          Check (Reg 1, ImmI 0, ImmI 4096, 1, 1);
          Bin (2, Add, I64, Reg 0, ImmI 1);
          Check (Reg 2, ImmI 0, ImmI 4096, 1, 2);
        ],
      [ 2; 2 ] );
  ]

(* A check of [p[0]] before [setjmp] must not stand for the one after
   the [longjmp], which sees [p + 1000]; with and without a join
   before it (without one, [p] is a copy value numbering sees through). *)
let setjmp_srcs =
  List.map
    (Printf.sprintf
       "jmp_buf env; \
        void g(void) { longjmp(env, 1); } \
        int main(int argc, char **argv) { \
        int *p = (int*)malloc(4 * sizeof(int)); int x; \
        %s \
        p[0] = x; \
        if (setjmp(env) == 0) { p = p + 1000; g(); } \
        else { p[0] = 7; printf(\"wrote\\n\"); } \
        return 0; }")
    [ "if (argc > 5) x = 1; else x = 2;"; "x = 2;" ]

(* An indirect call, and with [take] a module that also takes
   [setjmp]'s address. *)
let fptr_src ~take =
  Printf.sprintf
    "int twice(int x) { return 2 * x; } \
     int thrice(int x) { return 3 * x; } \
     void *sj; \
     int main(int argc, char **argv) { \
     int (*f)(int) = thrice; int *p = (int*)malloc(16); %s \
     if (argc > 5) f = twice; \
     p[1] = f(3); p[1] = p[1] + 1; printf(\"%%d\\n\", p[1]); return 0; }"
    (if take then "sj = (void*)setjmp;" else "")

(* [p[k] = p[k] + 1] and [n->visits += 1] re-derive the same address
   into a fresh register for the store. *)
let rmw_src =
  "struct node { int v; int visits; }; \
   int main(void) { int *p = (int*)malloc(100 * sizeof(int)); \
   struct node *n = (struct node*)malloc(sizeof(struct node)); int i; int k; \
   n->visits = 0; for (i = 0; i < 100; i++) p[i] = 0; \
   for (i = 0; i < 1000; i++) { k = (i * 7) % 100; p[k] = p[k] + 1; \
   n->visits = n->visits + 1; } \
   printf(\"%d %d\\n\", p[3], n->visits); return 0; }"

(* Read-modify-write accesses produce back-to-back identical checks
   (the load's and the store's), which the available-checks CSE merges;
   the loop-invariant metadata computation for [a] and [p] is hoisted
   to the preheader.  Exercises both halves of the pass. *)
let loopy =
  "int main(void) { int a[64]; int *p = (int*)malloc(4); int i; \
   for (i = 0; i < 100; i++) { a[i % 64] = i; a[i % 64] += 3; \
   *p = *p + a[i % 64]; } \
   printf(\"%d\\n\", *p); return 0; }"

(* Same outcome, same stdout, whatever the flag. *)
let agrees name src =
  tc name (fun () ->
      let a = runs on src and b = runs off src in
      (match (a.outcome, b.outcome) with
      | Interp.State.Exit x, Interp.State.Exit y when x = y -> ()
      | x, y ->
          Alcotest.fail
            (Printf.sprintf "outcomes differ: %s vs %s"
               (Interp.State.string_of_outcome x)
               (Interp.State.string_of_outcome y)));
      Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text)

let suite =
  [
    (* ---------------- the pass actually fires ---------------- *)
    tc "static checks drop on a loopy program" (fun () ->
        let n_on = static_checks on loopy and n_off = static_checks off loopy in
        Alcotest.(check bool)
          (Printf.sprintf "fewer static checks (%d < %d)" n_on n_off)
          true (n_on < n_off));
    tc "static metadata lookups drop too" (fun () ->
        let n_on = static_metaloads on loopy
        and n_off = static_metaloads off loopy in
        Alcotest.(check bool)
          (Printf.sprintf "fewer static MetaLoads (%d <= %d)" n_on n_off)
          true (n_on <= n_off));
    tc "dynamic checks drop on a loopy program" (fun () ->
        let a = runs on loopy and b = runs off loopy in
        let ca = a.stats.Interp.State.checks
        and cb = b.stats.Interp.State.checks in
        Alcotest.(check bool)
          (Printf.sprintf "fewer dynamic checks (%d < %d)" ca cb)
          true (ca < cb);
        Alcotest.(check bool) "fewer cycles" true
          (a.stats.Interp.State.cycles < b.stats.Interp.State.cycles));
    tc "eliminated module still validates" (fun () ->
        Sbir.Ir.validate
          (Softbound.instrument ~opts:on (Softbound.compile loopy)));
    (* ---------------- behavioural equivalence ---------------- *)
    agrees "safe loop is untouched observationally" loopy;
    agrees "linked list build and sum"
      "typedef struct n { int v; struct n *next; } n_t; \
       int main(void) { n_t *h = NULL; int i; for (i = 0; i < 30; i++) { \
       n_t *x = (n_t*)malloc(sizeof(n_t)); x->v = i; x->next = h; h = x; } \
       int s = 0; n_t *c; for (c = h; c; c = c->next) s += c->v; \
       printf(\"%d\\n\", s); return 0; }";
    agrees "early exit inside the loop (no zero-trip miscompile)"
      "int main(void) { int a[8]; int i; for (i = 0; i < 100; i++) { \
       if (i == 3) return 7; a[i] = i; } return 0; }";
    agrees "zero-trip loop over out-of-bounds body"
      "int main(void) { int a[4]; int i; int n = 0; \
       for (i = 0; i < n; i++) a[i + 100] = 1; printf(\"ok\\n\"); return 0; }";
    agrees "pointer redefinition in the loop kills availability"
      "int main(void) { int x = 1; int y = 2; int *p = &x; int i; int s = 0; \
       for (i = 0; i < 10; i++) { s += *p; p = (i % 2 == 0) ? &y : &x; } \
       printf(\"%d\\n\", s); return 0; }";
    (* ---------------- detection is preserved ---------------- *)
    tc "overflow in a hoisted-check loop still aborts" (fun () ->
        let src =
          "int main(void) { int a[8]; int i; int s = 0; \
           for (i = 0; i < 9; i++) s += a[i]; return s; }"
        in
        Alcotest.(check bool) "elim on detects" true
          (Softbound.detected (runs on src));
        Alcotest.(check bool) "elim off detects" true
          (Softbound.detected (runs off src)));
    tc "overflow on the last iteration only" (fun () ->
        let src =
          "int main(void) { int *p = (int*)malloc(16); int i; \
           for (i = 0; i <= 4; i++) p[i] = i; return 0; }"
        in
        Alcotest.(check bool) "detected" true
          (Softbound.detected (runs on src));
        Alcotest.(check bool) "hash facility too" true
          (Softbound.detected (runs hash_on src)));
    tc "store-only with elimination still catches writes" (fun () ->
        let src =
          "int main(void) { char *d = (char*)malloc(4); \
           strcpy(d, \"much too long\"); return 0; }"
        in
        Alcotest.(check bool) "detected" true
          (Softbound.detected (runs store_on src)));
    tc "all 18 attacks abort with elimination on (full + store-only)"
      (fun () ->
        List.iter
          (fun (a : Attacks.Wilander.attack) ->
            let label o =
              Printf.sprintf "attack %02d (%s): %s" a.id o a.technique
            in
            Alcotest.(check bool) (label "full") true
              (Softbound.detected (runs on a.source));
            Alcotest.(check bool)
              (label "store-only")
              true
              (Softbound.detected (runs store_on a.source)))
          Attacks.Wilander.all);
    tc "bugbench verdicts are unchanged by elimination" (fun () ->
        List.iter
          (fun (p : Attacks.Bugbench.program) ->
            let v o = Softbound.detected (runs o p.source) in
            Alcotest.(check bool) (p.name ^ " full") (v off) (v on);
            Alcotest.(check bool)
              (p.name ^ " store-only")
              (v store_off) (v store_on))
          Attacks.Bugbench.all);
    (* ---------------- induction-variable widening ---------------- *)
    tc "widening fires on a canonical counted loop" (fun () ->
        let src =
          "int main(void) { int a[16]; int i; int s = 0; \
           for (i = 0; i < 16; i++) a[i] = i; \
           for (i = 0; i < 16; i++) s += a[i]; \
           printf(\"%d\\n\", s); return 0; }"
        in
        Alcotest.(check bool) "spans emitted" true (widened src > 0);
        let a = runs_undischarged on src and b = runs_undischarged no_widen src in
        Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text;
        Alcotest.(check bool)
          (Printf.sprintf "fewer dynamic checks (%d < %d)"
             a.stats.Interp.State.checks b.stats.Interp.State.checks)
          true
          (a.stats.Interp.State.checks < b.stats.Interp.State.checks));
    tc "coalescing folds same-base consecutive checks" (fun () ->
        let src =
          "int main(void) { int a[8]; \
           a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4; \
           printf(\"%d\\n\", a[0] + a[3]); return 0; }"
        in
        Alcotest.(check bool) "checks coalesced" true (coalesced src > 0);
        let a = runs_undischarged on src
        and b = runs_undischarged no_widen src in
        Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text);
    refuses "early break (trip count not exact)"
      "int main(void) { int a[8]; int i; int s = 0; \
       for (i = 0; i < 8; i++) { a[i] = i; if (i == 5) break; } \
       for (i = 0; i < 6; i++) { s += a[i]; if (s > 99) break; } \
       printf(\"%d\\n\", s); return 0; }";
    refuses "call inside the loop body"
      "int main(void) { int a[8]; int i; \
       for (i = 0; i < 8; i++) { a[i] = i; printf(\"%d \", a[i]); } \
       printf(\"\\n\"); return 0; }";
    refuses "unknown trip count (limit redefined in the loop)"
      "int main(void) { int a[8]; int i; int n = 6; int s = 0; \
       for (i = 0; i < n; i++) { a[i] = i; s += a[i]; if (i == 2) n = 4; } \
       printf(\"%d %d\\n\", s, n); return 0; }";
    tc "widening: float division and a header-computed limit (lbm shape)"
      (fun () ->
        (* [n] is loaded, so the header recomputes [n - 1] every
           iteration; the body divides doubles; it is the only loop *)
        let src extra =
          Printf.sprintf
            "int cells = 64; \
             void relax(double *src, double *dst, int n) { int i; \
             for (i = 1; i < n - 1; i++) \
             dst[i] = (src[i - 1] + src[i + 1]) / (src[i] + 1.0); } \
             int main(void) { \
             double *a = (double *)malloc(64 * sizeof(double)); \
             double *b = (double *)malloc(64 * sizeof(double)); \
             a[9] = 2.0; a[11] = 4.0; \
             relax(a, b, cells + %d); printf(\"%%f\\n\", b[10]); return 0; }"
            extra
        in
        Alcotest.(check bool) "spans emitted" true (widened (src 0) > 0);
        let a = runs on (src 0) and b = runs no_widen (src 0) in
        Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text;
        Alcotest.(check bool)
          (Printf.sprintf "fewer dynamic checks (%d < %d)"
             a.stats.Interp.State.checks b.stats.Interp.State.checks)
          true
          (a.stats.Interp.State.checks < b.stats.Interp.State.checks);
        (* one element too many: the widened span reports the same trap *)
        let a = runs on (src 1) and b = runs no_widen (src 1) in
        Alcotest.(check bool) "detected" true (Softbound.detected a);
        Alcotest.(check string) "same trap"
          (Interp.State.string_of_outcome b.outcome)
          (Interp.State.string_of_outcome a.outcome));
    refuses "integer division by a register"
      "int d = 3; \
       int main(void) { int *p = (int *)malloc(64); int i; \
       for (i = 0; i < 16; i++) p[i] = i / d; \
       printf(\"%d\\n\", p[5]); return 0; }";
    refuses "negative stride (down-counting loop)"
      "int main(void) { int a[8]; int i; int s = 0; \
       for (i = 7; i >= 0; i = i - 1) a[i] = i; \
       for (i = 7; i >= 0; i = i - 1) s += a[i]; \
       printf(\"%d\\n\", s); return 0; }";
    tc "widened loop traps at the same point as unwidened" (fun () ->
        let src =
          "int main(void) { int a[8]; int i; \
           for (i = 0; i < 12; i++) a[i] = i; return 0; }"
        in
        let a = runs on src and b = runs no_widen src in
        Alcotest.(check string) "same trap message"
          (Interp.State.string_of_outcome b.outcome)
          (Interp.State.string_of_outcome a.outcome);
        Alcotest.(check bool) "detected" true (Softbound.detected a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "widen on/off agree (outcome, stdout, trap site; both engines, \
            all facilities)"
         ~count:500
         QCheck.(
           triple
             (make ~print:string_of_int Gen.(int_bound 249))
             bool (int_range 0 4))
         widen_agrees);

    (* ---------------- the metadata copy cleanup ---------------- *)
    tc "cleanup: fewer instructions, and what Transform composes"
      (fun () ->
        (* [q = p->next] lowers to a load into a temp and a copy into
           [q], whose metadata copies the cleanup removes *)
        let src =
          "struct n { int v; struct n *next; }; \
           int main(void) { struct n *h = 0; struct n *q; int i; int s = 0; \
           for (i = 0; i < 8; i++) { q = (struct n *)malloc(sizeof(struct n)); \
           q->v = i; q->next = h; h = q; } \
           for (q = h; q; q = q->next) s += q->v; \
           printf(\"%d\\n\", s); return 0; }"
        in
        let m0 = Softbound.compile src in
        let m_on = with_elim ~cleanup:true on m0
        and m_off = with_elim ~cleanup:false on m0 in
        Alcotest.(check bool) "fewer static instructions" true
          (static_insts m_on < static_insts m_off);
        Alcotest.(check bool) "identical composed pipeline" true
          (Sbir.Pretty_ir.dump_module m_on
          = Sbir.Pretty_ir.dump_module (Softbound.instrument ~opts:on m0));
        match cleanup_disagrees on m0 with
        | None -> ()
        | Some why -> Alcotest.fail why);
    tc "cleanup: the copies out of a meta.load fold into it" (fun () ->
        (* em3d's inlined [nth] loop, after instrumentation:
           %r3,%r4 = meta.load [%r0]; %r5 = mov %r3; %r6 = mov %r4 *)
        let open Sbir.Ir in
        let f =
          one_block_func ~nregs:7
            [
              Load (1, P, Reg 0);
              MetaLoad (3, 4, Reg 0, 1);
              Mov (5, P, Reg 3);
              Mov (6, P, Reg 4);
              Check (Reg 1, Reg 5, Reg 6, 4, 2);
            ]
        in
        Alcotest.(check (list string)) "folded"
          (List.map show_inst
             [
               Load (1, P, Reg 0);
               MetaLoad (5, 6, Reg 0, 1);
               Check (Reg 1, Reg 5, Reg 6, 4, 2);
             ])
          (List.map show_inst (cleaned ~meta_floor:3 f)));
    tc "cleanup: dead metadata copies go, lookups and program code stay"
      (fun () ->
        let open Sbir.Ir in
        let f =
          one_block_func ~nregs:6
            [
              Mov (0, P, ImmI 8);
              MetaLoad (3, 4, Reg 0, 1);
              Mov (5, P, ImmI 0);
              Bin (2, Add, P, Reg 0, ImmI 4);
            ]
        in
        Alcotest.(check (list string)) "kept"
          (List.map show_inst
             [
               Mov (0, P, ImmI 8);
               MetaLoad (3, 4, Reg 0, 1);
               Bin (2, Add, P, Reg 0, ImmI 4);
             ])
          (List.map show_inst (cleaned ~meta_floor:3 f)));
    tc "cleanup: a copy is not coalesced across a read of its target"
      (fun () ->
        (* [saved[i] = h] stores [h]'s metadata between the call that
           defines [p]'s and the copy of it into [h]'s; defining the
           call's result straight into [h]'s would store the new
           block's bounds and trap on [saved[1][8]] *)
        let src =
          "int main(void) { int *saved[2]; \
           int *h = (int *)malloc(4 * sizeof(int)); int *p; int i; \
           for (i = 0; i < 2; i++) { p = (int *)malloc(16 * sizeof(int)); \
           saved[i] = h; h = p; } \
           saved[1][8] = 1; printf(\"%d\\n\", saved[1][8]); return 0; }"
        in
        let m0 = Softbound.compile src in
        Alcotest.(check bool) "clean exit" false
          (Softbound.detected (Softbound.run_protected m0));
        match cleanup_disagrees on m0 with
        | None -> ()
        | Some why -> Alcotest.fail why);
    tc "cleanup: a copy dies when its source is redefined" (fun () ->
        (* [q = p] copies [p]'s metadata; the next [malloc] redefines
           [p]'s, so [q[2]] must still read the old block's *)
        let src =
          "int main(void) { int *p = (int *)malloc(4 * sizeof(int)); \
           int *q; int i; int s = 0; \
           for (i = 0; i < 2; i++) { q = p; \
           p = (int *)malloc(64 * sizeof(int)); q[2] = i; p[40] = i; \
           s += q[2] + p[40]; } \
           printf(\"%d\\n\", s); return 0; }"
        in
        let m0 = Softbound.compile src in
        Alcotest.(check bool) "clean exit" false
          (Softbound.detected (Softbound.run_protected m0));
        match cleanup_disagrees on m0 with
        | None -> ()
        | Some why -> Alcotest.fail why);
    tc "cleanup: functions that may call setjmp are left alone" (fun () ->
        (* on the CFG, [p]'s metadata is dead after [p = b]; the longjmp
           resumes after setjmp with [p = b] and reads it *)
        let src =
          "jmp_buf env; int a[4]; int b[64]; \
           void jump(void) { longjmp(env, 1); } \
           int main(void) { int *p = a; int r = setjmp(env); \
           if (r != 0) { p[8] = 1; printf(\"%d\\n\", p[8]); return 0; } \
           p = b; if (p == 0) return 3; jump(); return 0; }"
        in
        let m0 = Softbound.compile src in
        let r = Softbound.run_protected m0 in
        Alcotest.(check string) "p[8] is inside b" "1\n"
          r.Interp.Vm.stdout_text;
        Alcotest.(check string) "main untouched"
          (Sbir.Pretty_ir.dump_module (with_elim ~cleanup:false on m0))
          (Sbir.Pretty_ir.dump_module (with_elim ~cleanup:true on m0));
        match cleanup_disagrees on m0 with
        | None -> ()
        | Some why -> Alcotest.fail why);
    tc
      (Printf.sprintf
         "cleanup on/off agree on %d generated programs (outcome, stdout, \
          trap site, heap, dynamic checks and metadata ops; cycles on <= \
          off; only metadata instructions removed)"
         cleanup_oracle_size)
      (fun () ->
        let trapped = ref 0 in
        for index = 0 to cleanup_oracle_size - 1 do
          let case = Fuzz.case_of ~seed:4099 ~index in
          let src = Cminus.Pretty.program_string case.Fuzz.Gen.prog in
          let engine =
            if index mod 2 = 0 then Interp.State.Eng_closure
            else Interp.State.Eng_decode
          in
          let facility =
            if index / 2 mod 2 = 0 then Softbound.Config.Shadow_space
            else Softbound.Config.Hash_table
          in
          let opts = { on with Softbound.Config.facility } in
          let cfg = { obs_cfg with Interp.State.engine } in
          let m0 = Softbound.compile src in
          (match cleanup_disagrees ~cfg opts m0 with
          | None -> ()
          | Some why -> Alcotest.failf "program %d: %s\n%s" index why src);
          if case.Fuzz.Gen.expect <> Fuzz.Gen.Safe then incr trapped
        done;
        if !trapped * 5 < cleanup_oracle_size then
          Alcotest.failf "only %d of %d programs carry an injected violation"
            !trapped cleanup_oracle_size);
    (* ---------------- setjmp ---------------- *)
    tc "setjmp: no check fact survives a longjmp (both engines, shadow \
        and hash)" (fun () ->
        (* [p[0] = 7] after the longjmp reads [p + 1000]; on the CFG it
           looks covered by the check of [p[0] = x] *)
        List.iter
          (fun ((engine, facility), src) ->
            let m0 = Softbound.compile src in
            let r =
              Softbound.run_protected
                ~opts:{ on with Softbound.Config.facility }
                ~cfg:{ Interp.State.default_config with Interp.State.engine }
                m0
            in
            Alcotest.(check bool) "detected" true (Softbound.detected r);
            Alcotest.(check string) "nothing written" "" r.stdout_text)
          (List.concat_map
             (fun point -> List.map (fun src -> (point, src)) setjmp_srcs)
             [
               (Interp.State.Eng_closure, Softbound.Config.Shadow_space);
               (Interp.State.Eng_closure, Softbound.Config.Hash_table);
               (Interp.State.Eng_decode, Softbound.Config.Shadow_space);
               (Interp.State.Eng_decode, Softbound.Config.Hash_table);
             ]));
    tc "setjmp: indirect calls block Elim only where setjmp can run"
      (fun () ->
        let main_of src =
          let m = Softbound.instrument (Softbound.compile src) in
          Option.get (Sbir.Ir.find_func m "_sb_main")
        in
        let fp = main_of (fptr_src ~take:false) in
        Alcotest.(check bool) "no setjmp in reach" false
          (Sbir.Ir.may_call_setjmp fp);
        let taken = main_of (fptr_src ~take:true) in
        Alcotest.(check bool) "setjmp's address taken" true
          (Sbir.Ir.may_call_setjmp taken);
        Alcotest.(check bool) "Elim ran only without it" true
          (Softbound.Elim.count_checks fp
          < Softbound.Elim.count_checks taken));

    (* ---------------- value numbering (check-vn) ---------------- *)
    tc "check-vn: a read-modify-write through re-derived addresses keeps \
        one check" (fun () ->
        let m0 = Softbound.compile rmw_src in
        let static m =
          Hashtbl.fold
            (fun _ f n -> n + Softbound.Elim.count_checks f)
            m.Sbir.Ir.mfuncs 0
        in
        let on_ = static (with_elim on m0)
        and off_ = static (with_elim ~value_numbering:false on m0) in
        Alcotest.(check bool)
          (Printf.sprintf "fewer static checks (%d < %d)" on_ off_)
          true (on_ < off_);
        match vn_disagrees on m0 with
        | None -> ()
        | Some why -> Alcotest.fail why);
    tc "check-vn: hand-built cases keep the expected checks" (fun () ->
        List.iter
          (fun (name, f, kept) ->
            Alcotest.(check (list int)) name kept (vn_checks f))
          vn_cases);
    tc
      (Printf.sprintf
         "check-vn on/off agree on %d generated programs (outcome, stdout, \
          trap site, heap, metadata ops; checks and cycles on <= off)"
         cleanup_oracle_size)
      (fun () ->
        let trapped = ref 0 in
        for index = 0 to cleanup_oracle_size - 1 do
          let case = Fuzz.case_of ~seed:6007 ~index in
          let src = Cminus.Pretty.program_string case.Fuzz.Gen.prog in
          let engine =
            if index mod 2 = 0 then Interp.State.Eng_closure
            else Interp.State.Eng_decode
          in
          let facility =
            if index / 2 mod 2 = 0 then Softbound.Config.Shadow_space
            else Softbound.Config.Hash_table
          in
          let opts = { on with Softbound.Config.facility } in
          let cfg = { obs_cfg with Interp.State.engine } in
          (match vn_disagrees ~cfg opts (Softbound.compile src) with
          | None -> ()
          | Some why -> Alcotest.failf "program %d: %s\n%s" index why src);
          if case.Fuzz.Gen.expect <> Fuzz.Gen.Safe then incr trapped
        done;
        if !trapped * 5 < cleanup_oracle_size then
          Alcotest.failf "only %d of %d programs carry an injected violation"
            !trapped cleanup_oracle_size);
    (* ---------------- qcheck properties ---------------- *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"random in-bounds walks agree (outcome, stdout, check count)"
         ~count:30
         QCheck.(pair (int_range 1 40) (int_range 1 5))
         (fun (n, stride) ->
           let src =
             Printf.sprintf
               "int main(void) { int a[%d]; int i; int s = 0; \
                for (i = 0; i < %d; i += %d) a[i] = i; \
                for (i = 0; i < %d; i += %d) s += a[i]; \
                printf(\"%%d\\n\", s); return 0; }"
               n n stride n stride
           in
           let a = runs on src and b = runs off src in
           a.outcome = b.outcome
           && a.stdout_text = b.stdout_text
           && a.stats.Interp.State.checks <= b.stats.Interp.State.checks));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"random overflows detected identically with elim on/off"
         ~count:30
         QCheck.(pair (int_range 1 32) (int_range 0 8))
         (fun (n, past) ->
           let src =
             Printf.sprintf
               "int main(void) { int a[%d]; int i; int s = 0; \
                for (i = 0; i <= %d; i++) s += a[i]; return s; }"
               n
               (n + past)
           in
           Softbound.detected (runs on src)
           && Softbound.detected (runs off src)));
  ]
