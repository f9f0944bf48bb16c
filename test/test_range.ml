(* Static bounds-check discharge: the interval domain of Sbir.Range and
   the transformation that skips the checks it proves.

   Unit tests pin the interval rules (wrapping arithmetic, guard
   refinement, [%]-guard trimming, widening) and what the analysis must
   refuse to prove.  The on/off oracle runs 500 programs from a template
   generator local to this file — global, local and struct-field arrays
   indexed by masked, guarded, loop-bounded and [%]-guarded indices, a
   third of them with an injected out-of-bounds access — with the
   discharge on and off: outcome, stdout, trap message, trap address and
   trap site must be identical, and the discharge may only save
   cycles. *)

module Itv = Sbir.Range.Itv
module S = Interp.State

let tc name f = Alcotest.test_case name `Quick f

let itv =
  Alcotest.testable
    (fun ppf (i : Itv.t) -> Format.fprintf ppf "[%d, %d]" i.Itv.lo i.Itv.hi)
    ( = )

let int_max32 = 0x7fffffff

let discharged ?opts src =
  Softbound.Transform.count_discharged ?opts (Softbound.compile src)

let obs_cfg = { S.default_config with S.trace_depth = 1 lsl 12 }

let run ~discharge ?(opts = Softbound.Config.default) ?(argv = []) m =
  Interp.Engine.run
    ~cfg:(Softbound.vm_config ~cfg:{ obs_cfg with S.argv } opts)
    (Softbound.Transform.transform ~discharge ~opts m)

(** Site of the failing check, if the run trapped on one. *)
let fail_site (r : Interp.Vm.result) =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Obs.E_check { site; ok = false; _ }
      | Obs.E_check_span { site; ok = false; _ } ->
          Some site
      | _ -> acc)
    None
    (Obs.events r.Interp.Vm.obs)

(** The discharge on and off agree on everything observable but cycles,
    which it can only lower.  Returns the discharge-on run. *)
let agree ?opts ?argv label src =
  let m = Softbound.compile src in
  let a = run ~discharge:true ?opts ?argv m
  and b = run ~discharge:false ?opts ?argv m in
  let out r = S.string_of_outcome r.Interp.Vm.outcome in
  Alcotest.(check string) (label ^ ": outcome") (out b) (out a);
  Alcotest.(check string)
    (label ^ ": stdout") b.Interp.Vm.stdout_text a.Interp.Vm.stdout_text;
  Alcotest.(check (option int)) (label ^ ": trap site") (fail_site b)
    (fail_site a);
  if a.Interp.Vm.stats.S.cycles > b.Interp.Vm.stats.S.cycles then
    Alcotest.failf "%s: discharge costs cycles (%d > %d)" label
      a.Interp.Vm.stats.S.cycles b.Interp.Vm.stats.S.cycles;
  a

(* ---- programs the unit tests prove or refuse ---- *)

let wrap_src =
  "int a[16]; \
   int main(int argc, char **argv) { int x = atoi(argv[1]); \
   if (x >= 0) { int y = x + 1; if (y < 16) a[y] = 1; } return 0; }"

let mod_guard_src c =
  Printf.sprintf
    "int a[81]; \
     int main(void) { int p; int s = 0; \
     for (p = 0; p < 81; p++) { a[p] = p; } \
     for (p = 0; p < 81; p++) { \
     if (p %% 9 != %d) s += a[p - 1]; if (p %% 9 != 8) s += a[p + 1]; } \
     printf(\"%%d\\n\", s); return 0; }"
    c

(* ---- the template generator ---- *)

(** One generated program: its source, the same program without the
    template statements (to tell their discharges from the fixed
    initialization code's), and whether an out-of-bounds access was
    injected (clean programs are in bounds by construction). *)
let gen_program (seed : int) : string * string * bool =
  let rs = Random.State.make [| 0x5eed; seed |] in
  let int lo hi = lo + Random.State.int rs (hi - lo + 1) in
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let gn = int 1 40 and ln = int 1 40 and fn = int 1 12 and cn = int 1 40 in
  (* (lvalue prefix, element count) *)
  let arrays = [ ("g", gn); ("l", ln); ("st.f", fn); ("c", cn) ] in
  let buf = Buffer.create 512 in
  let add fmt = Printf.bprintf buf fmt in
  (* an in-bounds access by construction, in one of five index shapes;
     all read [k] (in [-4, 40]) or a loop counter *)
  let access () =
    let a, n = pick arrays in
    let off = int (-2) 2 in
    match int 0 4 with
    | 0 ->
        (* masked: the mask keeps the index below a power of two <= n *)
        let rec pow p = if 2 * p <= n then pow (2 * p) else p in
        let m = (pow 1 / int 1 2) - 1 in
        add "s += %s[(k * %d + %d) & %d];\n" a (int 1 97) (int 0 50) (max 0 m)
    | 1 ->
        (* guarded *)
        let lo = max 0 (-off) + int 0 2 and hi = n - max 0 off - int 0 2 in
        add "if (k >= %d && k < %d) s += %s[k + %d];\n" lo hi a off
    | 2 ->
        (* loop-bounded *)
        let lo = max 0 (-off) + int 0 2 and hi = n - max 0 off - int 0 1 in
        add "for (i = %d; i < %d; i++) %s[i + %d] = i + s;\n" lo hi a off
    | 3 ->
        (* %-guarded: the excluded residue keeps the neighbour in bounds *)
        let m = int 2 9 in
        if int 0 1 = 0 then
          add "for (i = 0; i < %d; i++) if (i %% %d != 0) s += %s[i - 1];\n" n
            m a
        else
          add "for (i = 0; i < %d; i++) if (i %% %d != %d) s += %s[i + 1];\n"
            n m ((n - 1) mod m) a
    | _ ->
        (* in bounds at run time only: the analysis cannot bound a load *)
        add "s += %s[idx[r & 3] %% %d];\n" a n
  in
  (* an access out of bounds on its first execution *)
  let inject () =
    let a, n = pick arrays in
    match int 0 3 with
    | 0 -> add "for (i = 0; i <= %d; i++) %s[i] = i;\n" n a
    | 1 -> add "for (i = 0; i < %d; i++) if (i %% 3 != 1) s += %s[i - 1];\n" n a
    | 2 -> add "s += %s[(k & 3) + %d];\n" a n
    | _ -> add "s += %s[(k & 3) - %d];\n" a (int 4 6)
  in
  let injected = int 0 2 = 0 in
  let count = int 2 6 in
  let at = if injected then int 0 count else -1 in
  for j = 0 to count - 1 do
    if j = at then inject ();
    access ()
  done;
  if at = count then inject ();
  let body = Buffer.contents buf in
  Buffer.clear buf;
  add "int g[%d];\nchar c[%d];\nint idx[4];\n" gn cn;
  add "struct s { int f[%d]; int tail; };\n" fn;
  add "int main(void) {\n  int l[%d]; struct s st; int i; int r; int s = 0;\n"
    ln;
  add "  int k = %d;\n" (int 0 9);
  add "  for (i = 0; i < 4; i++) idx[i] = i * %d + %d;\n" (int 1 7) (int 0 5);
  add "  for (i = 0; i < %d; i++) l[i] = i;\n" ln;
  add "  for (i = 0; i < %d; i++) st.f[i] = i;\n" fn;
  add "  st.tail = 0;\n";
  add "  for (r = 0; r < 3; r++) {\n    k = (k * 5 + r) %% 45 - 4;\n";
  let head = Buffer.contents buf in
  let tail = "  }\n  printf(\"%d %d\\n\", s, st.tail);\n  return 0;\n}\n" in
  (head ^ body ^ tail, head ^ tail, injected)

let oracle_size = 500

let suite =
  [
    (* ---------------- the interval domain ---------------- *)
    tc "an & mask bounds the result" (fun () ->
        Alcotest.check itv "x & 4095" (Itv.make 0 4095)
          (Itv.binop Sbir.Ir.And Sbir.Ir.I32 Itv.top (Itv.const 4095));
        Alcotest.check itv "negative x & 7" (Itv.make 0 7)
          (Itv.binop Sbir.Ir.And Sbir.Ir.I32 (Itv.make (-9) (-1))
             (Itv.const 7)));
    tc "i32 arithmetic that can wrap goes to the full range" (fun () ->
        Alcotest.check itv "x + 1, x in [0, INT_MAX]"
          (Itv.of_ty Sbir.Ir.I32)
          (Itv.binop Sbir.Ir.Add Sbir.Ir.I32 (Itv.make 0 int_max32)
             (Itv.const 1));
        Alcotest.check itv "the same sum in i64 does not wrap"
          (Itv.make 1 (int_max32 + 1))
          (Itv.binop Sbir.Ir.Add Sbir.Ir.I64 (Itv.make 0 int_max32)
             (Itv.const 1));
        Alcotest.check itv "a native-word overflow is the full range" Itv.top
          (Itv.binop Sbir.Ir.Mul Sbir.Ir.I64 (Itv.make 0 max_int)
             (Itv.const 2)));
    tc "x + 1 with x in [0, INT_MAX] is not discharged, and traps" (fun () ->
        Alcotest.(check int) "discharged" 0 (discharged wrap_src);
        ignore (agree ~argv:[ "3" ] "in bounds" wrap_src);
        let r = agree ~argv:[ "2147483647" ] "wrapped" wrap_src in
        Alcotest.(check bool) "y = INT_MIN traps" true (Softbound.detected r));
    tc "guards refine both sides" (fun () ->
        let src hi =
          Printf.sprintf
            "int a[16]; int main(int argc, char **argv) { \
             int x = atoi(argv[1]); if (x >= 0 && x %s 16) a[x] = 1; \
             if (16 > x && 0 <= x) a[x] = 2; return 0; }"
            hi
        in
        Alcotest.(check int) "x < 16" 2 (discharged (src "<"));
        Alcotest.(check int) "x <= 16 proves only the second" 1
          (discharged (src "<="));
        let r = agree ~argv:[ "16" ] "x = 16" (src "<=") in
        Alcotest.(check bool) "a[16] traps" true (Softbound.detected r));
    tc "% guards trim an endpoint" (fun () ->
        (* the initializing loop's a[p] is proven in both *)
        Alcotest.(check int) "p % 9 != 0 and != 8" 3
          (discharged (mod_guard_src 0));
        Alcotest.(check int) "p % 9 != 1 does not protect a[p - 1]" 2
          (discharged (mod_guard_src 1));
        ignore (agree "trimmed" (mod_guard_src 0));
        Alcotest.(check bool) "a[-1] traps" true
          (Softbound.detected (agree "untrimmed" (mod_guard_src 1))));
    tc "widening terminates on growing and nested loops" (fun () ->
        Alcotest.check itv "moved bounds jump to the extremes"
          (Itv.make 0 max_int)
          (Itv.widen (Itv.make 0 1) (Itv.make 0 2));
        let src =
          "int a[8]; int main(void) { int x = 1; int i; int j; int s = 0; \
           for (i = 0; i < 1000; i++) { x = x * 3 + 1; \
           for (j = 0; j < 8; j++) { s += a[j]; while (s > 50) s = s - 7; } \
           if (x > 100000) x = x % 7; } \
           s += a[x & 7]; printf(\"%d\\n\", s); return 0; }"
        in
        Alcotest.(check int) "a[j] and a[x & 7]" 2 (discharged src);
        ignore (agree "nested" src));
    tc "a negative offset is not discharged, and traps" (fun () ->
        let src =
          "int main(void) { int a[8]; int i; int s = 0; \
           for (i = 0; i < 8; i++) s += a[i - 1]; return s; }"
        in
        Alcotest.(check int) "discharged" 0 (discharged src);
        Alcotest.(check bool) "a[-1] traps" true (Softbound.detected (agree "neg" src)));
    tc "a one-past-the-end access is not discharged, and traps" (fun () ->
        let src =
          "int g[8]; int main(void) { int i; \
           for (i = 0; i <= 8; i++) g[i] = i; return 0; }"
        in
        Alcotest.(check int) "discharged" 0 (discharged src);
        Alcotest.(check bool) "g[8] traps" true (Softbound.detected (agree "ope" src)));
    tc "field windows: in-window accesses prove, sub-object overflow traps"
      (fun () ->
        let src hi =
          Printf.sprintf
            "struct s { int f[4]; int tail; }; \
             int main(void) { struct s st; int i; st.tail = 0; \
             for (i = 0; i < %d; i++) st.f[i] = i; \
             printf(\"%%d\\n\", st.tail); return 0; }"
            hi
        in
        (* both read and write st.tail through its own window *)
        Alcotest.(check int) "f[0..3] and st.tail" 3 (discharged (src 4));
        Alcotest.(check int) "f[4] is inside st but outside the field" 2
          (discharged (src 5));
        Alcotest.(check bool) "f[4] traps" true
          (Softbound.detected (agree "window" (src 5))));
    tc "a pointer copied from a global or slot keeps its extent" (fun () ->
        let src =
          "int g[8]; int main(int argc, char **argv) { int l[4]; int *p; \
           int i; if (argc > 1) p = g; else p = l; \
           for (i = 0; i < 4; i++) p[i] = i; \
           p = g; for (i = 0; i < 8; i++) p[i] = i; return l[0]; }"
        in
        (* the first loop's [p] is a global or a slot: unknown; the
           second's is [g] *)
        Alcotest.(check int) "discharged" 1 (discharged src);
        ignore (agree "copied" src));
    tc "heap pointers are never discharged" (fun () ->
        let src =
          "int main(void) { int *p = (int *)malloc(32); int i; \
           for (i = 0; i < 8; i++) p[i & 7] = i; return p[3]; }"
        in
        Alcotest.(check int) "discharged" 0 (discharged src));
    tc "functions calling setjmp are not analyzed" (fun () ->
        (* on the CFG, [a[i]] is reached only with [i = 0]; the longjmp
           resumes after setjmp with [i = 9] *)
        let src =
          "int a[4]; jmp_buf env; void jump(void) { longjmp(env, 1); } \
           int main(void) { int i = 0; int r = setjmp(env); \
           if (r == 0) { i = 9; jump(); return 0; } \
           a[i] = 2; return 0; }"
        in
        Alcotest.(check int) "discharged" 0 (discharged src);
        Alcotest.(check bool) "a[9] after longjmp traps" true
          (Softbound.detected (agree "setjmp" src)));
    tc "site ids stay put: a discharged access uses up its id" (fun () ->
        let m = Softbound.compile (mod_guard_src 0) in
        let ids d =
          let mm, n = Softbound.Transform.transform_with_sites ~discharge:d m in
          (n, List.map (fun (s : Obs.site_info) -> s.Obs.si_id)
                (Obs.sites_of_modul mm))
        in
        let n_on, on = ids true and n_off, off = ids false in
        Alcotest.(check int) "assigned" n_off n_on;
        List.iter
          (fun i ->
            if not (List.mem i off) then Alcotest.failf "site %d renumbered" i)
          on;
        Alcotest.(check bool) "fewer surviving sites" true
          (List.length on < List.length off));
    tc "store-only mode discharges stores" (fun () ->
        Alcotest.(check int) "the store; loads are not checked" 1
          (discharged ~opts:Softbound.Config.store_only
             "int a[81]; int main(void) { int p; \
              for (p = 0; p < 81; p++) a[p] = p; return a[3]; }"));
    (* ---------------- the on/off oracle ---------------- *)
    tc
      (Printf.sprintf
         "discharge on/off agree on %d template programs (outcome, stdout, \
          trap message, address and site; cycles on <= off)"
         oracle_size)
      (fun () ->
        let proved = ref 0 and trapped = ref 0 and injected_n = ref 0 in
        for seed = 0 to oracle_size - 1 do
          let src, skeleton, injected = gen_program seed in
          let opts =
            if seed mod 2 = 0 then Softbound.Config.default
            else
              { Softbound.Config.default with
                Softbound.Config.facility = Softbound.Config.Hash_table }
          in
          let label = Printf.sprintf "program %d\n%s" seed src in
          let r = agree ~opts label src in
          if discharged ~opts src > discharged ~opts skeleton then
            incr proved;
          if injected then incr injected_n;
          match r.Interp.Vm.outcome with
          | S.Exit 0 when not injected -> ()
          | S.Trapped (S.Bounds_violation _) when injected -> incr trapped
          | o ->
              Alcotest.failf "%s: unexpected outcome %s" label
                (S.string_of_outcome o)
        done;
        Alcotest.(check int) "every injected access traps" !injected_n
          !trapped;
        if !proved * 10 < oracle_size * 8 then
          Alcotest.failf
            "the discharge proved a template access in only %d of %d programs"
            !proved oracle_size);
  ]
