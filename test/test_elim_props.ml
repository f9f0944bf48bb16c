(* Elimination soundness, stated over the site ids the transformation
   stamps before Elim runs (so numbering is identical with the pass on
   and off, and "elided" is literally the set difference).

   Static property: every check the pass removes is covered by a
   surviving check of at least its width.  Either it has the same
   pointer/base/bound operand registers, at a dominating position in
   the pre-elimination function or hoisted by the loop pass (detectable
   as a surviving identical check whose original position shares a
   natural loop with the elided one); or, at a dominating position, each
   of its operands holds the same value, by an evaluator of its own
   (below) rather than Elim's.

   Dynamic property: with the trace ring capturing every executed
   check, the elim-on run touches exactly the same set of
   (address, size) pairs as the elim-off run, and never checks any of
   them more often.  Together these are the "never weakens detection"
   claim of lib/core/elim.ml as executable properties. *)

module Ir = Sbir.Ir
module Dom = Sbir.Dom
module Gen = Fuzz.Gen

let no_elim =
  { Softbound.Config.default with Softbound.Config.eliminate_checks = false }

(* ---- static coverage ---- *)

type chk = {
  c_func : string;
  c_blk : int;
  c_idx : int;  (** instruction index within the block *)
  c_key : Ir.operand * Ir.operand * Ir.operand;  (** ptr, base, bound *)
  c_size : int;
}

(** All [Check] sites of an instrumented module, keyed by site id. *)
let check_sites (m : Ir.modul) : (int, chk) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  Ir.iter_funcs m (fun f ->
      Array.iteri
        (fun bi b ->
          List.iteri
            (fun ii inst ->
              match inst with
              | Ir.Check (p, base, bound, size, site) when site > 0 ->
                  Hashtbl.replace tbl site
                    { c_func = f.Ir.fname; c_blk = bi; c_idx = ii;
                      c_key = (p, base, bound); c_size = size }
              | _ -> ())
            b.Ir.insts)
        f.Ir.fblocks);
  tbl

(** Site ids covered by a surviving widened/coalesced span check: the
    stamped site plus, for coalesced spans, every member's site.  A span
    subsumes its member checks by construction (the widening pass only
    emits it when the progression covers exactly the member addresses),
    so an elided [Check] whose id appears here is soundly covered. *)
let span_sites (m : Ir.modul) : (int, unit) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  Ir.iter_funcs m (fun f ->
      Array.iter
        (fun b ->
          List.iter
            (fun inst ->
              match inst with
              | Ir.CheckSpan sp ->
                  Hashtbl.replace tbl sp.Ir.sp_site ();
                  Array.iter
                    (fun s -> Hashtbl.replace tbl s ())
                    sp.Ir.sp_sites
              | _ -> ())
            b.Ir.insts)
        f.Ir.fblocks);
  tbl

(* ---- values, independently of Elim ----

   The value of an operand at a position is a term over the unique
   definitions that reach it: a register reached by exactly one
   definition of a pure instruction is that instruction applied to its
   operands' values there; one reached by exactly one other definition
   (load, call, metadata lookup) is that definition; one reached only
   from the function's entry is its entry value; anything else has no
   value.  [gep x + c] and a 64-bit [add x, c] are [x]'s value plus [c].

   Why equal values at a check [c] that dominates [e] mean equal
   contents: a definition [d] named anywhere in [c]'s terms first ran
   on a path from the entry that does not pass [c], so [d] running again
   between [c] and [e] would give a path to [e] that avoids [c].  Each
   definition named therefore last ran at the same time for [c] and
   [e]. *)

(* A value, hash-consed per function into an integer id so that equal
   values have equal ids, whatever their size. *)
type value =
  | Entry of int  (** a register's value at function entry *)
  | Def of int * int  (** the result of an opaque definition (block, index) *)
  | Const of Ir.operand
  | Slot of int
  | Plus of int * int  (** 64-bit sum of a value id and a non-zero constant *)
  | Node of string * int list  (** any other pure instruction *)

module PS = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(** [value_at f b i op]: the value of [op] just before instruction [i]
    of block [b], if it has one. *)
let value_at (f : Ir.func) =
  let dom = Dom.compute f in
  let insts = Array.map (fun b -> Array.of_list b.Ir.insts) f.Ir.fblocks in
  let last_def b upto r =
    let rec go i =
      if i < 0 then None
      else if List.mem r (Ir.defs_of insts.(b).(i)) then Some i
      else go (i - 1)
    in
    go (upto - 1)
  in
  (* reaching definitions per register at each block entry; (-1, -1)
     stands for the entry value *)
  let nregs = f.Ir.fnregs in
  let inn = Array.map (fun _ -> None) insts in
  let last =
    Array.map
      (fun is ->
        let h = Hashtbl.create 8 in
        Array.iteri
          (fun i inst ->
            List.iter (fun r -> Hashtbl.replace h r i) (Ir.defs_of inst))
          is;
        h)
      insts
  in
  let out b =
    Option.map
      (fun s ->
        Array.init nregs (fun r ->
            match Hashtbl.find_opt last.(b) r with
            | Some i -> PS.singleton (b, i)
            | None -> s.(r)))
      inn.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        let init =
          Array.make nregs (if b = 0 then PS.singleton (-1, -1) else PS.empty)
        in
        let s =
          List.fold_left
            (fun acc p ->
              match out p with
              | Some o -> Array.map2 PS.union acc o
              | None -> acc)
            init dom.Dom.preds.(b)
        in
        let same =
          match inn.(b) with
          | Some s' -> Array.for_all2 PS.equal s s'
          | None -> false
        in
        if not same then begin
          inn.(b) <- Some s;
          changed := true
        end)
      dom.Dom.rpo
  done;
  let ids = Hashtbl.create 64 and keys = Hashtbl.create 64 in
  let id k =
    match Hashtbl.find_opt ids k with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids k i;
        Hashtbl.add keys i k;
        i
  in
  let plus v c =
    match Hashtbl.find keys v with
    | Plus (root, k) -> if k + c = 0 then root else id (Plus (root, k + c))
    | _ -> if c = 0 then v else id (Plus (v, c))
  in
  let const v =
    match Hashtbl.find keys v with Const (Ir.ImmI k) -> Some k | _ -> None
  in
  let ( let* ) = Option.bind in
  (* each definition's value, once; [None] while it is being computed *)
  let memo = Hashtbl.create 64 in
  let rec op_at b i = function
    | Ir.Reg r -> reg_at b i r
    | o -> Some (id (Const o))
  and reg_at b i r =
    let defs =
      match last_def b i r with
      | Some j -> [ (b, j) ]
      | None -> (
          match inn.(b) with Some s -> PS.elements s.(r) | None -> [])
    in
    match defs with
    | [ (-1, _) ] -> Some (id (Entry r))
    | [ d ] -> (
        match Hashtbl.find_opt memo d with
        | Some v -> v
        | None ->
            Hashtbl.replace memo d None;
            let v = def_value d in
            Hashtbl.replace memo d v;
            v)
    | _ -> None
  and def_value (b, i) =
    let v = op_at b i in
    let node name ops =
      let* vs =
        List.fold_right
          (fun o acc ->
            let* acc = acc in
            let* x = v o in
            Some (x :: acc))
          ops (Some [])
      in
      Some (id (Node (name, vs)))
    in
    let sum name a c =
      let* va = v a in
      let* vc = v c in
      match (const va, const vc) with
      | _, Some k -> Some (plus va k)
      | Some k, _ -> Some (plus vc k)
      | _ -> Some (id (Node (name, [ va; vc ])))
    in
    match insts.(b).(i) with
    | Ir.Gep (_, a, c, _) -> sum "gep" a c
    | Ir.Bin (_, Ir.Add, (Ir.I64 | Ir.U64 | Ir.P), a, c) -> sum "add64" a c
    | Ir.Bin (_, op, ty, a, c) ->
        node (Ir.show_binop op ^ Ir.show_ity ty) [ a; c ]
    | Ir.Cmp (_, op, ty, a, c) ->
        node (Ir.show_cmpop op ^ Ir.show_ity ty) [ a; c ]
    | Ir.Mov (_, (Ir.I64 | Ir.U64 | Ir.P), o) -> v o
    | Ir.Mov (_, ty, o) -> node ("mov" ^ Ir.show_ity ty) [ o ]
    | Ir.Cast (_, t1, t2, o) ->
        node ("cast" ^ Ir.show_ity t1 ^ Ir.show_ity t2) [ o ]
    | Ir.Slotaddr (_, s) -> Some (id (Slot s))
    | _ -> Some (id (Def (b, i)))
  in
  op_at

(** Is register [r] written on some path from position [c] to position
    [e] that does not pass [c] again? *)
let written_between (f : Ir.func) (dom : Dom.t) (cb, ci) (eb, ei) r =
  let insts = Array.map (fun b -> Array.of_list b.Ir.insts) f.Ir.fblocks in
  let writes b lo hi =
    let w = ref false in
    for i = max 0 lo to min (Array.length insts.(b)) hi - 1 do
      if List.mem r (Ir.defs_of insts.(b).(i)) then w := true
    done;
    !w
  in
  if cb = eb then writes cb (ci + 1) ei
  else
    (* blocks reached from [cb], and reaching [eb], without entering [cb] *)
    let reach next start =
      let seen = Array.make (Array.length insts) false in
      let rec go b =
        if b <> cb && not seen.(b) then begin
          seen.(b) <- true;
          List.iter go next.(b)
        end
      in
      List.iter go start;
      seen
    in
    let fwd = reach dom.Dom.succs dom.Dom.succs.(cb)
    and bwd = reach dom.Dom.preds dom.Dom.preds.(eb) in
    writes cb (ci + 1) max_int
    || writes eb 0 ei
    || Array.exists Fun.id
         (Array.mapi (fun b m -> m && bwd.(b) && writes b 0 max_int) fwd)

(** Does some surviving check cover the elided one?  [doms]/[loops] are
    computed over the function in the {e pre-elimination} module, where
    both instructions still exist at their original positions. *)
let covered ~(f : Ir.func) ~doms ~loops ~value_at ~(pre : (int, chk) Hashtbl.t)
    ~surviving (e : chk) : bool =
  let before (c : chk) =
    if c.c_blk = e.c_blk then c.c_idx < e.c_idx
    else Dom.dominates doms c.c_blk e.c_blk
  in
  let ops (p, b, x) = [ p; b; x ] in
  (* the same register, not written in between, or the same value *)
  let same (c : chk) x y =
    (match (x, y) with
    | Ir.Reg r, Ir.Reg r' ->
        r = r'
        && not
             (written_between f doms (c.c_blk, c.c_idx) (e.c_blk, e.c_idx) r)
    | _ -> x = y)
    ||
    match (value_at c.c_blk c.c_idx x, value_at e.c_blk e.c_idx y) with
    | Some v, Some v' -> v = v'
    | _ -> false
  in
  Hashtbl.fold
    (fun site (c : chk) found ->
      found
      || site > 0
         && Hashtbl.mem surviving site
         && c.c_func = e.c_func && c.c_size >= e.c_size
         && (c.c_key = e.c_key
             && (before c
                || List.exists
                     (fun (l : Dom.loop) ->
                       l.Dom.body.(c.c_blk) && l.Dom.body.(e.c_blk))
                     loops)
            || before c && List.for_all2 (same c) (ops c.c_key) (ops e.c_key)))
    pre false

(** Every check of [pre_m] missing from [post_m] is covered. *)
let assert_modules_sound (pre_m : Ir.modul) (post_m : Ir.modul) =
  let pre = check_sites pre_m and post = check_sites post_m in
  let spanned = span_sites post_m in
  (* site numbering is emission-order, before Elim: identical across
     the two instruments of the same module *)
  Ir.iter_funcs pre_m (fun f ->
      let doms = Dom.compute f in
      let loops = Dom.natural_loops doms in
      let value_at = value_at f in
      Hashtbl.iter
        (fun site (e : chk) ->
          if
            e.c_func = f.Ir.fname
            && (not (Hashtbl.mem post site))
            && not (Hashtbl.mem spanned site)
          then
            if
              not
                (covered ~f ~doms ~loops ~value_at ~pre ~surviving:post e)
            then
              Alcotest.failf
                "unsound elision: site %d (%s B%d#%d, width %d) has no \
                 covering surviving check"
                site e.c_func e.c_blk e.c_idx e.c_size)
        pre)

let assert_static_sound src =
  let m = Softbound.compile src in
  let pre_m, _ = Softbound.instrument_with_sites ~opts:no_elim m in
  let post_m, _ = Softbound.instrument_with_sites m in
  assert_modules_sound pre_m post_m

(** The same property for a hand-built instrumented function. *)
let assert_func_sound (f : Ir.func) =
  let modul f =
    let mfuncs = Hashtbl.create 1 in
    Hashtbl.replace mfuncs f.Ir.fname f;
    { Ir.mfuncs; mglobals = []; mfunc_order = [ f.Ir.fname ]; mexterns = [] }
  in
  assert_modules_sound (modul f)
    (modul (Softbound.Elim.elim_func ~meta_floor:f.Ir.fnregs f))

(* ---- dynamic coverage ---- *)

let trace_cfg =
  { Interp.State.default_config with Interp.State.trace_depth = 1 lsl 17 }

(** Multiset of (address, size) pairs hit by executed bounds checks. *)
let checked_addrs (r : Interp.Vm.result) : (int * int, int) Hashtbl.t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun ev ->
      match ev with
      | Obs.E_check { addr; size; _ } ->
          let k = (addr, size) in
          Hashtbl.replace tbl k
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      | Obs.E_check_span { first; count; stride; width; _ } ->
          (* a widened span check covers the whole progression: expand
             it back into the per-element pairs the unwidened run emits
             as individual E_check events *)
          for k = 0 to count - 1 do
            let key = (first + (k * stride), width) in
            Hashtbl.replace tbl key
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
          done
      | _ -> ())
    (Obs.events r.Interp.Vm.obs);
  tbl

let assert_dynamic_sound src =
  let m = Softbound.compile src in
  let on = Softbound.run_protected ~cfg:trace_cfg m in
  let off = Softbound.run_protected ~opts:no_elim ~cfg:trace_cfg m in
  match (on.Interp.Vm.outcome, off.Interp.Vm.outcome) with
  | Interp.State.Exit a, Interp.State.Exit b ->
      if a <> b then Alcotest.failf "exit codes differ: %d vs %d" a b;
      let ha = checked_addrs on and hb = checked_addrs off in
      Hashtbl.iter
        (fun (addr, size) n ->
          match Hashtbl.find_opt hb (addr, size) with
          | None ->
              Alcotest.failf
                "elim-on checked (0x%x, %d) which elim-off never checked"
                addr size
          | Some n' when n > n' ->
              Alcotest.failf
                "elim-on checked (0x%x, %d) %d times, elim-off only %d"
                addr size n n'
          | Some _ -> ())
        ha;
      Hashtbl.iter
        (fun (addr, size) _ ->
          if not (Hashtbl.mem ha (addr, size)) then
            Alcotest.failf
              "elim-on never checked (0x%x, %d); coverage lost" addr size)
        hb
  | a, b ->
      (* trapping programs: both must agree; the address property only
         applies to the common prefix, which test_elim already pins via
         outcome/stdout agreement *)
      if
        Interp.State.string_of_outcome a <> Interp.State.string_of_outcome b
      then
        Alcotest.failf "outcomes differ: %s vs %s"
          (Interp.State.string_of_outcome a)
          (Interp.State.string_of_outcome b)

(* ---- sources: fixed regressions + the fuzz generator ---- *)

let fixed =
  [
    (* back-to-back identical checks + loop-invariant metadata *)
    "int main(void) { int a[64]; int *p = (int*)malloc(4); int i; \
     for (i = 0; i < 100; i++) { a[i % 64] = i; a[i % 64] += 3; \
     *p = *p + a[i % 64]; } printf(\"%d\\n\", *p); return 0; }";
    (* straight-line duplicate accesses *)
    "int main(void) { int a[8]; a[3] = 1; a[3] = a[3] + 1; a[3] += a[3]; \
     printf(\"%d\\n\", a[3]); return 0; }";
    (* value numbering: a read-modify-write re-derives its address into
       a fresh register, and [(i + 1) + 1] is not [i + 2] at 32 bits *)
    "int main(int argc, char **argv) { int *a = (int*)malloc(8 * sizeof(int)); \
     int i = argc; a[i + 2] = 1; a[(i + 1) + 1] = a[(i + 1) + 1] + 1; \
     printf(\"%d\\n\", a[3]); return 0; }";
    (* value numbering: [q] keeps the old [p + 5] after [p] is reloaded *)
    "int *tab[2]; \
     int main(void) { int *a = (int*)malloc(8 * sizeof(int)); \
     int *b = (int*)malloc(8 * sizeof(int)); int *p; int *q; int k = 0; \
     tab[0] = a; tab[1] = b; p = tab[k]; q = p + 5; p[5] = 3; \
     p = tab[k + 1]; p[5] = 1; q[0] = 2; p = tab[k]; p[5] = 4; \
     printf(\"%d %d\\n\", a[5], b[5]); return 0; }";
    (* checks under branches: only the dominating one may cover *)
    "int main(void) { int a[8]; int i; for (i = 0; i < 8; i++) a[i] = i; \
     if (a[0]) a[1] = 9; else a[1] = 7; a[1] += a[0]; \
     printf(\"%d\\n\", a[1]); return 0; }";
  ]

let gen_src index =
  let case = Fuzz.case_of ~seed:1009 ~index in
  Cminus.Pretty.program_string case.Gen.prog

let arb_index = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 199)

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    tc "static: elided checks covered (fixed programs)" (fun () ->
        List.iter assert_static_sound fixed);
    tc "static: elided checks covered (hand-built value-numbering cases)"
      (fun () ->
        List.iter (fun (_, f, _) -> assert_func_sound f) Test_elim.vn_cases);
    tc "dynamic: checked-address sets agree (fixed programs)" (fun () ->
        List.iter assert_dynamic_sound fixed);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60
         ~name:"static: elided checks covered (generated programs)"
         arb_index
         (fun index ->
           assert_static_sound (gen_src index);
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40
         ~name:"dynamic: checked-address sets agree (generated programs)"
         arb_index
         (fun index ->
           assert_dynamic_sound (gen_src index);
           true));
  ]
