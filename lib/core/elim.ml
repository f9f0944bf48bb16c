(* Redundant-check elimination, metadata-lookup hoisting and metadata
   copy cleanup over SoftBound-instrumented IR (paper section 6.1).

   The paper's prototype re-runs LLVM's standard optimizers after the
   SoftBound pass, which removes checks and metadata lookups that the
   instrumentation made redundant: two dereferences through the same
   pointer need only one bounds check, and a loop that reloads the same
   pointer every iteration needs only one metadata-space lookup.  The
   [prune_liveness] pre-pass in [Transform] stands in for the
   *liveness* part of that cleanup; this module stands in for the
   *redundancy* part (CGuard makes the same observation: most of the
   remaining headroom is provably-redundant spatial checks) and for the
   register coalescing that makes SSA metadata flows free.

   [elim_func] folds over one list of named sub-passes ([passes]), in
   order:

   1. {b hoist} — loop-invariant hoisting.  Using the dominator tree and
      natural loops from {!Sbir.Dom}, loop-invariant instrumentation —
      [MetaLoad]s whose address is invariant (and whose loop is free of
      metadata writers), the pure metadata-propagation instructions
      introduced by the transformation, and (under a stronger
      condition, below) [Check]/[CheckFptr] on invariant operands — is
      moved into the loop's preheader, created on demand.  A check
      executes a trap conditionally, so hoisting one is allowed only
      when loop entry already implies the check runs at least once: its
      block must dominate every latch and every exit-edge source, the
      loop must contain no in-loop return/unreachable terminator, and no
      call may sit on a path that reaches the check's block (a callee
      could terminate the program first).  Program (non-metadata)
      instructions are hoisted only when a hoisted root transitively
      needs them.

   2. {b widen} — induction-variable check widening: the per-iteration
      checks of a counted loop whose addresses are affine in the
      induction variable ({!Sbir.Scev}) become one preheader
      [CheckSpan] over the whole progression.

   3. {b coalesce} — within-block coalescing of same-base
      constant-offset checks ([a[i]] and [a[i+1]] share one span).
      Widening and coalescing run only with [widen].

   4. {b metaload-cse} — within a block, a second [MetaLoad] from the
      same address reuses the first lookup's registers (two 1-cycle
      moves instead of a 5- or 9-cycle metadata-space probe);
      invalidated by [MetaStore], calls, [SetBoundMark], and
      redefinition of any involved register.

   5. {b check-cse} — a forward available-checks dataflow
      (intersection over predecessors, iterated to a fixpoint over the
      reverse postorder — the non-SSA analogue of "a dominating
      identical check with no intervening redefinition"): a [Check] on
      (ptr, base, bound) is dropped when an available check on the same
      operand registers with width >= the required width reaches it, a
      [CheckFptr] when an identical one reaches it.  Facts die when any
      mentioned register is redefined.  Registers are the only state a
      check reads, so stores, calls and metadata writes do not kill
      facts.

   6. {b check-vn} — the same dataflow over operand {e values} instead
      of register names: lowering re-derives the address of every
      access into a fresh register, so the load and the store of
      [p[k] = p[k] + 1] check equal values in different registers.  A
      forward must-dataflow first numbers the registers checks depend
      on ([gep x + c] and 64-bit adds fold into a root plus a byte
      offset); see the section comment below for what counts as equal.
      Only [Check]/[CheckFptr] instructions are removed.

   7. {b copy-coalesce}, 8. {b copy-prop}, 9. {b dead-meta} — the
      metadata copy cleanup: a metadata temp defined once and copied
      once is defined straight into the copy's destination; copies into
      metadata registers are propagated forward into their readers; and
      pure instructions defining only dead metadata registers are
      deleted.  They touch only registers introduced by the
      transformation and delete no memory, check or program
      instruction, so they can only lower the cycle count.  They run
      only with [cleanup].  Dead-meta also deletes the bound [add.ptr]
      a check removed by check-vn leaves behind.

   Check-cse, check-vn and copy-prop share one forward-dataflow driver
   ({!forward}), and passes 5-9 share one dominator analysis: nothing
   after widening changes the CFG.  No sub-pass runs in a function that
   may call [setjmp] ({!Ir.may_call_setjmp}): [longjmp] returns there
   along an edge the CFG does not show.

   Soundness note: a dropped check is reached, on every path, by a check
   on the same operand values that either passed (so this one would
   pass: same values, [w' >= w] implies [ptr + w <= bound]) or aborted
   (so this one is never reached).  Hoisted checks abort at loop entry
   exactly when the first in-loop execution would have aborted, and a
   span traps — at the same address, site and message — exactly when
   some covered original check would have.  Detection is therefore
   unchanged — the test suite re-runs the full Wilander/BugBench matrix
   with elimination on to hold this to account (DESIGN.md section 12). *)

module Ir = Sbir.Ir
module Dom = Sbir.Dom
module Scev = Sbir.Scev
open Ir

(* ------------------------------------------------------------------ *)
(* Instruction facts                                                    *)
(* ------------------------------------------------------------------ *)

let ops_of (i : inst) : operand list =
  let acc = ref [] in
  iter_inst_operands (fun o -> acc := o :: !acc) i;
  List.rev !acc

let term_ops (t : terminator) : operand list =
  match t with
  | TRet ops -> ops
  | TBr (c, _, _) -> [ c ]
  | TSwitch (v, _, _) -> [ v ]
  | TJmp _ | TUnreachable -> []

let reg_ops (ops : operand list) : reg list =
  List.filter_map (function Reg r -> Some r | _ -> None) ops

let wide = function I64 | U64 | P -> true | _ -> false

(** Pure register-writing instructions safe to execute speculatively,
    or to delete when nothing reads their result (no memory access, no
    trap — [Div]/[Rem] can fault on zero). *)
let hoistable_pure = function
  | Mov _ | Cmp _ | Cast _ | Gep _ | Slotaddr _ -> true
  | Bin (_, (Div | Rem), _, _, _) -> false
  | Bin _ -> true
  | _ -> false

let iter_reads (k : reg -> unit) (i : inst) =
  iter_inst_operands (function Reg r -> k r | _ -> ()) i

let iter_term_reads (k : reg -> unit) (t : terminator) =
  List.iter (function Reg r -> k r | _ -> ()) (term_ops t)

(** The register a single-destination instruction writes, or -1. *)
let def1 = function
  | Mov (r, _, _) | Bin (r, _, _, _, _) | Cmp (r, _, _, _, _)
  | Cast (r, _, _, _) | Load (r, _, _) | Gep (r, _, _, _) | Slotaddr (r, _) ->
      r
  | _ -> -1

let iter_defs (k : reg -> unit) (i : inst) =
  match i with
  | Call { rets; _ } -> List.iter k rets
  | MetaLoad (a, b, _, _) ->
      k a;
      k b
  | _ ->
      let r = def1 i in
      if r >= 0 then k r

(* ------------------------------------------------------------------ *)
(* hoist: loop-invariant hoisting                                       *)
(* ------------------------------------------------------------------ *)

(* Positions are (block id, instruction index); a terminator "use"
   position is (block id, max_int) so it is dominated by every
   instruction of its own block. *)

type loop_ctx = {
  dom : Dom.t;
  loop : Dom.loop;
  def_count : (reg, int) Hashtbl.t;  (* defs within the loop *)
  def_pos : (reg, int * int) Hashtbl.t;  (* meaningful when count = 1 *)
  uses : (reg, (int * int) list) Hashtbl.t Lazy.t;
      (* function-wide, shared by the loops of one round *)
  meta_clobbered : bool;  (* MetaStore / Call / SetBoundMark in loop *)
  has_stop : bool;  (* TRet / TUnreachable terminator in loop *)
  calls : (int * int) list;  (* in-loop call positions *)
}

let dcount ctx r = try Hashtbl.find ctx.def_count r with Not_found -> 0

(** Every read position of each register. *)
let function_uses (f : func) : (reg, (int * int) list) Hashtbl.t =
  let uses = Hashtbl.create 64 in
  let add_use r pos =
    Hashtbl.replace uses r
      (pos :: (try Hashtbl.find uses r with Not_found -> []))
  in
  Array.iteri
    (fun b blk ->
      List.iteri
        (fun i inst -> List.iter (fun r -> add_use r (b, i)) (reg_ops (ops_of inst)))
        blk.insts;
      List.iter (fun r -> add_use r (b, max_int)) (reg_ops (term_ops blk.term)))
    f.fblocks;
  uses

let build_loop_ctx (f : func) (dom : Dom.t) uses (loop : Dom.loop) : loop_ctx
    =
  let def_count = Hashtbl.create 32 in
  let def_pos = Hashtbl.create 32 in
  let meta_clobbered = ref false in
  let has_stop = ref false in
  let calls = ref [] in
  Array.iteri
    (fun b blk ->
      if loop.Dom.body.(b) then begin
        (match blk.term with
        | TRet _ | TUnreachable -> has_stop := true
        | _ -> ());
        List.iteri
          (fun i inst ->
            (match inst with
            | MetaStore _ | SetBoundMark _ -> meta_clobbered := true
            | Call _ ->
                meta_clobbered := true;
                calls := (b, i) :: !calls
            | _ -> ());
            List.iter
              (fun r ->
                Hashtbl.replace def_count r
                  (1 + (try Hashtbl.find def_count r with Not_found -> 0));
                Hashtbl.replace def_pos r (b, i))
              (defs_of inst))
          blk.insts
      end)
    f.fblocks;
  {
    dom;
    loop;
    def_count;
    def_pos;
    uses;
    meta_clobbered = !meta_clobbered;
    has_stop = !has_stop;
    calls = !calls;
  }

(** Is position [q] strictly after [p] on every execution (same block
    later, or in a block [p]'s block strictly dominates)? *)
let dominated_by ctx ((b, i) : int * int) ((b', i') : int * int) : bool =
  if b = b' then i' > i else Dom.dominates ctx.dom b b'

(** All uses of [r], function-wide, lie inside the loop and after the
    defining position — so moving the single definition to the
    preheader changes no observable register value (in particular, a
    zero-trip loop entry leaves no reader of the speculatively computed
    value). *)
let uses_ok ctx r pos =
  List.for_all
    (fun (b', _ as q) -> ctx.loop.Dom.body.(b') && dominated_by ctx pos q)
    (try Hashtbl.find (Lazy.force ctx.uses) r with Not_found -> [])

(** The set of hoistable pure/[MetaLoad] definitions of the loop, as a
    growing fixpoint: an instruction joins once all its register
    operands are invariant (undefined in the loop, or defined once by an
    instruction already in the set — never by itself, which is how
    inductive updates like [r <- r + 1] are excluded). *)
let hoistable_defs (f : func) (ctx : loop_ctx) : ((int * int), inst) Hashtbl.t =
  let h = Hashtbl.create 16 in
  let invariant pos = function
    | Reg r -> (
        match dcount ctx r with
        | 0 -> true
        | 1 ->
            let dp = Hashtbl.find ctx.def_pos r in
            dp <> pos && Hashtbl.mem h dp
        | _ -> false)
    | _ -> true
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun b blk ->
        if ctx.loop.Dom.body.(b) && Dom.reachable ctx.dom b then
          List.iteri
            (fun i inst ->
              let pos = (b, i) in
              if not (Hashtbl.mem h pos) then
                let candidate =
                  hoistable_pure inst
                  ||
                  match inst with
                  | MetaLoad _ -> not ctx.meta_clobbered
                  | _ -> false
                in
                if
                  candidate
                  && List.for_all
                       (fun r -> dcount ctx r = 1 && uses_ok ctx r pos)
                       (defs_of inst)
                  && List.for_all (invariant pos) (ops_of inst)
                then begin
                  Hashtbl.add h pos inst;
                  changed := true
                end)
            blk.insts)
      f.fblocks
  done;
  h

(** Positions to move to the preheader: instrumentation roots plus the
    in-loop pure definitions they transitively need.  [meta_floor] is
    the register count of the function {e before} instrumentation, so a
    pure instruction writing only registers [>= meta_floor] is metadata
    propagation introduced by the transformation; pure program
    instructions are hoisted only as dependencies of a root. *)
let hoist_candidates (f : func) (ctx : loop_ctx) ~(meta_floor : int) :
    ((int * int) * inst) list =
  let h = hoistable_defs f ctx in
  let invariant pos = function
    | Reg r -> (
        match dcount ctx r with
        | 0 -> true
        | 1 ->
            let dp = Hashtbl.find ctx.def_pos r in
            dp <> pos && Hashtbl.mem h dp
        | _ -> false)
    | _ -> true
  in
  let loop = ctx.loop in
  let roots = ref [] in
  Array.iteri
    (fun b blk ->
      if loop.Dom.body.(b) && Dom.reachable ctx.dom b then
        List.iteri
          (fun i inst ->
            let pos = (b, i) in
            match inst with
            | Check _ | CheckFptr _ ->
                (* Sound only when loop entry implies this check runs:
                   see the module header. *)
                if
                  (not ctx.has_stop)
                  && List.for_all (invariant pos) (ops_of inst)
                  && List.for_all
                       (fun l -> Dom.dominates ctx.dom b l)
                       (loop.Dom.latches @ loop.Dom.exits)
                  && List.for_all
                       (fun (cb, ci) -> cb = b && ci > i)
                       ctx.calls
                then roots := (pos, inst) :: !roots
            | MetaLoad _ ->
                if Hashtbl.mem h pos then roots := (pos, inst) :: !roots
            | _ ->
                if
                  Hashtbl.mem h pos
                  && defs_of inst <> []
                  && List.for_all (fun r -> r >= meta_floor) (defs_of inst)
                then roots := (pos, inst) :: !roots)
          blk.insts)
    f.fblocks;
  let chosen = Hashtbl.create 16 in
  let rec need pos inst =
    if not (Hashtbl.mem chosen pos) then begin
      Hashtbl.add chosen pos inst;
      List.iter
        (fun r ->
          if dcount ctx r = 1 then
            let dp = Hashtbl.find ctx.def_pos r in
            if dp <> pos then
              match Hashtbl.find_opt h dp with
              | Some dinst -> need dp dinst
              | None -> ())
        (reg_ops (ops_of inst))
    end
  in
  List.iter (fun (pos, inst) -> need pos inst) !roots;
  Hashtbl.fold (fun pos inst acc -> (pos, inst) :: acc) chosen []

let map_targets (g : int -> int) (t : terminator) : terminator =
  match t with
  | TJmp t -> TJmp (g t)
  | TBr (c, t1, t2) -> TBr (c, g t1, g t2)
  | TSwitch (v, cases, d) ->
      TSwitch (v, List.map (fun (k, t) -> (k, g t)) cases, g d)
  | (TRet _ | TUnreachable) as t -> t

(** An existing preheader: the unique loop-outside predecessor of the
    header, provided the header is its only successor (so appending to
    it executes exactly once per loop entry). *)
let find_preheader (dom : Dom.t) (loop : Dom.loop) : int option =
  let outside =
    List.filter (fun p -> not loop.Dom.body.(p)) dom.Dom.preds.(loop.Dom.header)
  in
  match outside with
  | [ p ]
    when dom.Dom.succs.(p) = [ loop.Dom.header ] && Dom.reachable dom p ->
      Some p
  | _ -> None

(** Insert an empty preheader: every edge into the header from outside
    the loop is redirected through a fresh block that jumps to the
    header.  When the header is the (positional) entry block the new
    block must become the entry, so every block shifts up by one. *)
let insert_preheader (f : func) (loop : Dom.loop) : func =
  let h = loop.Dom.header in
  let n = Array.length f.fblocks in
  if h = 0 then
    let remap src t =
      if t = 0 then if loop.Dom.body.(src) then 1 else 0 else t + 1
    in
    let fblocks =
      Array.init (n + 1) (fun i ->
          if i = 0 then { insts = []; term = TJmp 1 }
          else
            let b = f.fblocks.(i - 1) in
            { b with term = map_targets (remap (i - 1)) b.term })
    in
    { f with fblocks }
  else
    let remap src t = if t = h && not loop.Dom.body.(src) then n else t in
    let fblocks =
      Array.init (n + 1) (fun i ->
          if i = n then { insts = []; term = TJmp h }
          else
            let b = f.fblocks.(i) in
            { b with term = map_targets (remap i) b.term })
    in
    { f with fblocks }

(** Move [chosen] to the end of block [pre], in dependency order: a
    definition dominates its uses, and dominators come strictly earlier
    in reverse postorder, so sorting by (RPO position, index) is a
    topological order of the moved instructions. *)
let apply_hoist (f : func) (dom : Dom.t) (pre : int)
    (chosen : ((int * int) * inst) list) : func =
  let sorted =
    List.sort
      (fun ((b1, i1), _) ((b2, i2), _) ->
        compare (dom.Dom.rpo_pos.(b1), i1) (dom.Dom.rpo_pos.(b2), i2))
      chosen
  in
  let moved = List.map snd sorted in
  let removed = Hashtbl.create 16 in
  List.iter (fun (pos, _) -> Hashtbl.replace removed pos ()) chosen;
  let fblocks =
    Array.mapi
      (fun b blk ->
        let insts =
          List.filteri (fun i _ -> not (Hashtbl.mem removed (b, i))) blk.insts
        in
        let insts = if b = pre then insts @ moved else insts in
        { blk with insts })
      f.fblocks
  in
  { f with fblocks }

(** One round: find the innermost loop with hoisting candidates and
    either hoist them (preheader present) or create its preheader (the
    next round hoists).  Returns [None] when no loop has candidates. *)
let hoist_round ~meta_floor (f : func) : func option =
  let dom = Dom.compute f in
  let loops = Dom.natural_loops dom in
  let uses = lazy (function_uses f) in
  let rec try_loops = function
    | [] -> None
    | loop :: rest -> (
        let ctx = build_loop_ctx f dom uses loop in
        match hoist_candidates f ctx ~meta_floor with
        | [] -> try_loops rest
        | chosen -> (
            match find_preheader dom loop with
            | Some pre -> Some (apply_hoist f dom pre chosen)
            | None -> Some (insert_preheader f loop)))
  in
  try_loops loops

let hoist_loops ~meta_floor (f : func) : func =
  (* Each round either inserts one preheader or strictly shrinks some
     loop body; instructions re-hoist at most once per enclosing loop,
     so the budget is never the binding constraint in practice. *)
  let budget = ref (16 + (4 * Array.length f.fblocks)) in
  let f = ref f in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    decr budget;
    match hoist_round ~meta_floor !f with
    | Some f' -> f := f'
    | None -> continue_ := false
  done;
  !f

(* ------------------------------------------------------------------ *)
(* widen: induction-variable check widening                            *)
(* ------------------------------------------------------------------ *)

(* A per-iteration [Check] whose address is affine in the loop's
   induction variable ([Scev.affine_addr]) is replaced by a single
   [CheckSpan] in the preheader covering the whole arithmetic
   progression.  Legality (beyond [Scev.analyze]'s loop-shape and
   no-observable-effects refusals): the check's block must dominate
   every latch (so the original runs exactly once per iteration), and
   the base/bound operands must be loop-invariant.  A check sitting in
   the header itself runs once more than the body — on the final,
   failing guard evaluation — so its span count is the trip count plus
   one.  The span's first-failing element is the program-order first
   failure (violations of an ascending progression form a prefix below
   base or a suffix above bound), so the trap address, site and message
   match the unwidened run's exactly; see DESIGN.md section 12 for the
   argument and the store-only-mode caveat. *)

let widen_one (f : func) (dom : Dom.t) (loops : Dom.loop list)
    (loop : Dom.loop) : func option =
  (* innermost loops only: a block of a multi-loop nest can execute
     many times per iteration of the outer loop, breaking the
     exactly-once-per-iteration accounting *)
  if
    List.exists
      (fun l' -> l' != loop && loop.Dom.body.(l'.Dom.header))
      loops
  then None
  else
    match Scev.analyze f dom loop with
    | None -> None
    | Some sc ->
        let cands = ref [] in
        Array.iteri
          (fun b blk ->
            if loop.Dom.body.(b) && Dom.reachable dom b then
              List.iteri
                (fun i inst ->
                  match inst with
                  | Check (p, base, bound, w, site)
                    when Scev.invariant_op sc base
                         && Scev.invariant_op sc bound
                         && List.for_all
                              (fun l -> Dom.dominates dom b l)
                              loop.Dom.latches -> (
                      match Scev.affine_addr sc (b, i) p with
                      | Some af ->
                          cands :=
                            ((b, i), (p, base, bound, w, site), af,
                             b = loop.Dom.header)
                            :: !cands
                      | None -> ())
                  | _ -> ())
                blk.insts)
          f.fblocks;
        let cands = List.rev !cands in
        if cands = [] then None
        else
          match find_preheader dom loop with
          | None -> Some (insert_preheader f loop)
          | Some pre ->
              let nregs = ref f.fnregs in
              let fresh () =
                let r = !nregs in
                incr nregs;
                r
              in
              let cnt_insts, cnt_op = Scev.emit_count sc ~fresh in
              let hdr_insts, hdr_op =
                if List.exists (fun (_, _, _, h) -> h) cands then
                  let hc = fresh () in
                  ([ Bin (hc, Add, I64, cnt_op, ImmI 1) ], Reg hc)
                else ([], cnt_op)
              in
              let spans =
                List.concat_map
                  (fun (_, (p, base, bound, w, site), af, in_header) ->
                    let chain, first = Scev.clone_chain ~fresh af p in
                    chain
                    @ [
                        CheckSpan
                          {
                            sp_first = first;
                            sp_count = (if in_header then hdr_op else cnt_op);
                            sp_stride = af.Scev.af_stride;
                            sp_width = w;
                            sp_base = base;
                            sp_bound = bound;
                            sp_site = site;
                            sp_sites = [||];
                          };
                      ])
                  cands
              in
              let removed = Hashtbl.create 8 in
              List.iter
                (fun (pos, _, _, _) -> Hashtbl.replace removed pos ())
                cands;
              let fblocks =
                Array.mapi
                  (fun b blk ->
                    let insts =
                      List.filteri
                        (fun i _ -> not (Hashtbl.mem removed (b, i)))
                        blk.insts
                    in
                    let insts =
                      if b = pre then insts @ cnt_insts @ hdr_insts @ spans
                      else insts
                    in
                    { blk with insts })
                  f.fblocks
              in
              Some { f with fblocks; fnregs = !nregs }

let widen_round (f : func) : func option =
  let dom = Dom.compute f in
  let loops = Dom.natural_loops dom in
  let rec go = function
    | [] -> None
    | loop :: rest -> (
        match widen_one f dom loops loop with
        | Some f' -> Some f'
        | None -> go rest)
  in
  go loops

let widen_loops (f : func) : func =
  (* Each round either inserts one preheader or removes every widenable
     check of one loop, so this terminates well inside the budget. *)
  let budget = ref (16 + (4 * Array.length f.fblocks)) in
  let f = ref f in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    decr budget;
    match widen_round !f with
    | Some f' -> f := f'
    | None -> continue_ := false
  done;
  !f

(* ------------------------------------------------------------------ *)
(* coalesce: within-block check coalescing                             *)
(* ------------------------------------------------------------------ *)

(* Checks in one block on the same base/bound whose addresses are the
   same linear form at constant offsets with a uniform ascending gap —
   [a[i]] and [a[i+1]] — merge into one [CheckSpan] at the first
   check's position carrying every member's site id.  Addresses are
   compared by symbolic linear forms over versioned register leaves, so
   a redefinition of any involved register simply stops the match.  Any
   instruction that can trap or produce output between two members
   would make the merged check's earlier trap observable, so calls,
   trapping arithmetic ([Ir.bin_may_trap]: integer division by a
   register, float remainder) and foreign checks close every open
   group (loads and stores between members are allowed and share the
   store-only-mode caveat of DESIGN.md section 12). *)

module Lin = struct
  type leaf =
    | LReg of reg * int  (** register at a definition version *)
    | LSlot of int  (** address of a frame slot — constant per call *)
    | LGlob of string
    | LGlobEnd of string
    | LFunc of string

  (* linear form: constant + sum of coefficient * leaf, leaves sorted *)
  type t = { terms : (leaf * int) list; k : int }

  let const k = { terms = []; k }
  let leaf l = { terms = [ (l, 1) ]; k = 0 }

  let add a b =
    let rec merge xs ys =
      match (xs, ys) with
      | [], l | l, [] -> l
      | (lx, cx) :: tx, (ly, cy) :: ty ->
          let c = compare lx ly in
          if c = 0 then
            if cx + cy = 0 then merge tx ty
            else (lx, cx + cy) :: merge tx ty
          else if c < 0 then (lx, cx) :: merge tx ys
          else (ly, cy) :: merge xs ty
    in
    { terms = merge a.terms b.terms; k = a.k + b.k }

  let scale s e =
    if s = 0 then const 0
    else { terms = List.map (fun (l, c) -> (l, c * s)) e.terms; k = e.k * s }

  let sub a b = add a (scale (-1) b)
end

let coalesce_block (blk : block) : block =
  let version : (reg, int) Hashtbl.t = Hashtbl.create 16 in
  let ver r = try Hashtbl.find version r with Not_found -> 0 in
  let bump r = Hashtbl.replace version r (ver r + 1) in
  (* current symbolic value of a register, at its current version *)
  let vals : (reg, Lin.t) Hashtbl.t = Hashtbl.create 16 in
  let expr_of (op : operand) : Lin.t option =
    match op with
    | ImmI c -> Some (Lin.const c)
    | ImmF _ -> None
    | Glob g -> Some (Lin.leaf (Lin.LGlob g))
    | GlobEnd g -> Some (Lin.leaf (Lin.LGlobEnd g))
    | Func g -> Some (Lin.leaf (Lin.LFunc g))
    | Reg r -> (
        match Hashtbl.find_opt vals r with
        | Some e -> Some e
        | None -> Some (Lin.leaf (Lin.LReg (r, ver r))))
  in
  (* value of a register being defined, before versions are bumped; only
     wide-typed arithmetic is tracked (narrow results truncate) *)
  let def_expr (inst : inst) : (reg * Lin.t option) option =
    let wide = function I64 | U64 | P -> true | _ -> false in
    match inst with
    | Mov (r, ty, o) -> Some (r, if wide ty then expr_of o else None)
    | Slotaddr (r, s) -> Some (r, Some (Lin.leaf (Lin.LSlot s)))
    | Gep (r, a, b, _) ->
        let e =
          match (expr_of a, expr_of b) with
          | Some ea, Some eb -> Some (Lin.add ea eb)
          | _ -> None
        in
        Some (r, e)
    | Cast (r, to_, from_, o) ->
        Some (r, if wide to_ && wide from_ then expr_of o else None)
    | Bin (r, op, ty, a, b) ->
        let e =
          if not (wide ty) then None
          else
            match (op, expr_of a, expr_of b) with
            | Add, Some ea, Some eb -> Some (Lin.add ea eb)
            | Sub, Some ea, Some eb -> Some (Lin.sub ea eb)
            | Mul, Some ea, Some { Lin.terms = []; k } ->
                Some (Lin.scale k ea)
            | Mul, Some { Lin.terms = []; k }, Some eb ->
                Some (Lin.scale k eb)
            | Shl, Some ea, Some { Lin.terms = []; k }
              when k >= 0 && k < 32 ->
                Some (Lin.scale (1 lsl k) ea)
            | _ -> None
        in
        Some (r, e)
    | _ -> None
  in
  let assign r e =
    bump r;
    match e with
    | Some e -> Hashtbl.replace vals r e
    | None -> Hashtbl.remove vals r
  in
  (* open coalescing groups *)
  let module G = struct
    type t = {
      key : Lin.t * Lin.t * int * (Lin.leaf * int) list;
      mutable members : (int * int * int) list;  (* (idx, const, site), rev *)
      mutable gap : int;  (* 0 until the second member fixes it *)
      first : span_check;  (* span template from the first member *)
    }
  end in
  let groups : G.t list ref = ref [] in
  (* rewrites: idx -> Some span (replace) / None (delete) *)
  let rewrites : (int, inst option) Hashtbl.t = Hashtbl.create 8 in
  let close (g : G.t) =
    match g.G.members with
    | (_ :: _ :: _) as members ->
        let members = List.rev members in
        let i0, _, _ = List.hd members in
        let sites = List.map (fun (_, _, s) -> s) members in
        Hashtbl.replace rewrites i0
          (Some
             (CheckSpan
                {
                  g.G.first with
                  sp_count = ImmI (List.length members);
                  sp_stride = g.G.gap;
                  sp_sites = Array.of_list sites;
                }));
        List.iter
          (fun (i, _, _) -> if i <> i0 then Hashtbl.replace rewrites i None)
          (List.tl members)
    | _ -> ()
  in
  let close_all () =
    List.iter close !groups;
    groups := []
  in
  List.iteri
    (fun idx inst ->
      match inst with
      | Check (p, base, bound, w, site) -> (
          (match (expr_of p, expr_of base, expr_of bound) with
          | None, _, _ | _, None, _ | _, _, None -> close_all ()
          | Some e, Some be, Some de -> (
              (* keyed on the symbolic values of base/bound (not their
                 register identity: straight-line accesses re-derive the
                 same slot/global address into fresh registers) *)
              let key = (be, de, w, e.Lin.terms) in
              let mine, others =
                List.partition (fun g -> g.G.key = key) !groups
              in
              (* a check is a potential trap: no foreign group may span
                 across it *)
              List.iter close others;
              match mine with
              | g :: _ -> (
                  let _, last_k, _ = List.hd g.G.members in
                  let d = e.Lin.k - last_k in
                  let extends =
                    d >= 1 && (g.G.gap = 0 || d = g.G.gap)
                  in
                  if extends then begin
                    g.G.gap <- d;
                    g.G.members <- (idx, e.Lin.k, site) :: g.G.members;
                    groups := [ g ]
                  end
                  else begin
                    close g;
                    groups :=
                      [
                        {
                          G.key;
                          members = [ (idx, e.Lin.k, site) ];
                          gap = 0;
                          first =
                            {
                              sp_first = p;
                              sp_count = ImmI 1;
                              sp_stride = 0;
                              sp_width = w;
                              sp_base = base;
                              sp_bound = bound;
                              sp_site = site;
                              sp_sites = [||];
                            };
                        };
                      ]
                  end)
              | [] ->
                  groups :=
                    [
                      {
                        G.key;
                        members = [ (idx, e.Lin.k, site) ];
                        gap = 0;
                        first =
                          {
                            sp_first = p;
                            sp_count = ImmI 1;
                            sp_stride = 0;
                            sp_width = w;
                            sp_base = base;
                            sp_bound = bound;
                            sp_site = site;
                            sp_sites = [||];
                          };
                      };
                    ]));
          ())
      | CheckFptr _ | CheckSpan _ -> close_all ()
      | Call { rets; _ } ->
          close_all ();
          List.iter (fun r -> assign r None) rets
      | _ -> (
          (match inst with
          | Bin (_, op, ty, _, d) when bin_may_trap op ty d -> close_all ()
          | _ -> ());
          match def_expr inst with
          | Some (r, e) -> assign r e
          | None -> List.iter (fun r -> assign r None) (defs_of inst)))
    blk.insts;
  close_all ();
  if Hashtbl.length rewrites = 0 then blk
  else
    let insts =
      List.mapi
        (fun i x ->
          match Hashtbl.find_opt rewrites i with
          | Some (Some span) -> Some span
          | Some None -> None
          | None -> Some x)
        blk.insts
      |> List.filter_map Fun.id
    in
    { blk with insts }

let coalesce_blocks (f : func) : func =
  { f with fblocks = Array.map coalesce_block f.fblocks }

(* ------------------------------------------------------------------ *)
(* metaload-cse: within-block metadata-lookup CSE                      *)
(* ------------------------------------------------------------------ *)

let local_metaload_cse (f : func) : func =
  let rewrite blk =
    (* available lookups: address operand -> registers holding its
       base/bound, newest first *)
    let tbl = ref [] in
    let kill_reg r =
      tbl :=
        List.filter
          (fun (a, (b, e)) -> (not (equal_operand a (Reg r))) && b <> r && e <> r)
          !tbl
    in
    let rev =
      List.fold_left
        (fun acc inst ->
          match inst with
          | MetaLoad (rb, re, a, _) -> (
              match
                List.find_opt (fun (a0, _) -> equal_operand a0 a) !tbl
              with
              | Some (_, (b0, e0)) when b0 = rb && e0 = re ->
                  (* same destinations already hold this lookup *)
                  acc
              | Some (_, (b0, e0)) ->
                  kill_reg rb;
                  kill_reg re;
                  tbl := (a, (rb, re)) :: !tbl;
                  Mov (re, P, Reg e0) :: Mov (rb, P, Reg b0) :: acc
              | None ->
                  kill_reg rb;
                  kill_reg re;
                  tbl := (a, (rb, re)) :: !tbl;
                  inst :: acc)
          | MetaStore _ | Call _ | SetBoundMark _ ->
              tbl := [];
              inst :: acc
          | _ ->
              List.iter kill_reg (defs_of inst);
              inst :: acc)
        [] blk.insts
    in
    { blk with insts = List.rev rev }
  in
  { f with fblocks = Array.map rewrite f.fblocks }

(* ------------------------------------------------------------------ *)
(* The forward must-dataflow driver                                     *)
(* ------------------------------------------------------------------ *)

(** Block-entry states of a forward must-analysis, by reverse-postorder
    iteration to a fixpoint.  The entry block starts from [entry]; any
    other block from the [meet] of its previous entry state and of its
    predecessors' exit states computed so far.  [None], the optimistic
    top, is skipped, which is what lets back edges converge from above;
    meeting with the previous entry state makes entry states only
    descend, which bounds the iteration even where [transfer] is not
    monotone.  [transfer b s] is the exit state of block [b] entered in
    [s]; it must not mutate [s].  Unreachable blocks get [None]. *)
let forward (dom : Dom.t) ~(entry : 'a) ~(meet : 'a -> 'a -> 'a)
    ~(equal : 'a -> 'a -> bool) ~(transfer : int -> 'a -> 'a) :
    int -> 'a option =
  let n = Array.length dom.Dom.preds in
  let inn = Array.make n None and out = Array.make n None in
  let in_of b =
    if b = 0 then Some entry
    else
      List.fold_left
        (fun acc p ->
          match (out.(p), acc) with
          | None, _ -> acc
          | Some m, None -> Some m
          | Some m, Some a -> Some (meet a m))
        inn.(b) dom.Dom.preds.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        match in_of b with
        | None -> ()
        | Some s ->
            let same =
              match inn.(b) with Some s' -> equal s s' | None -> false
            in
            if not same then begin
              inn.(b) <- Some s;
              out.(b) <- Some (transfer b s);
              changed := true
            end)
      dom.Dom.rpo
  done;
  fun b -> if Dom.reachable dom b then inn.(b) else None

let rec mem_int (x : int) = function
  | [] -> false
  | y :: l -> x = y || mem_int x l

(** Equality of two int-array states, without polymorphic compare. *)
let same_ints (a : int array) (b : int array) =
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  Array.length a = Array.length b && go (Array.length a - 1)

(* ------------------------------------------------------------------ *)
(* check-cse, check-vn: available-checks dataflow and elimination       *)
(* ------------------------------------------------------------------ *)

(* A check reads nothing but registers, so whether it passes is a
   function of its three operand values; a [Check] whose (ptr, base,
   bound) values equal those of a check that already ran on every path,
   at no smaller width, is redundant.  The two passes differ only in
   what "equal values" means.  [check-cse] compares register names.
   [check-vn] first numbers values: a forward must-dataflow maps each
   register a check depends on to a term over the current contents of
   other registers.

   - [gep x + c], a 64-bit [add x, c] and a 64-bit [mov] are the root
     of [x] plus a constant byte offset, folded, so [gep (gep x + 4) + 8]
     equals [gep x + 12].  Offsets fold only at 64 bits: an [i32] add
     wraps, and folding through it would equate different values.
   - Any other pure integer instruction ([gep x + y], [Bin], [Cmp],
     [Cast], a narrow [mov], [Slotaddr]) is a structural term over its
     operands' values.
   - Anything else ([Load], a call, [MetaLoad]) and any disagreement at
     a join leaves a register as its own root, [VReg r].

   A term is valid while none of the registers it mentions is
   redefined, so a definition resets every value and kills every check
   fact that mentions its register.  The values are computed first, as
   their own fixpoint; the available-checks facts are then computed
   with the block-entry values held fixed.  Only registers a check
   reads, closed backwards through pure definitions, are numbered.
   All tables are local to the call. *)

type vterm =
  | VReg of reg  (** current content of a register: a root *)
  | VOp of operand  (** an immediate, global, global end or function *)
  | VSlot of int
  | VOff of int * int  (** root value + non-zero byte offset, 64-bit *)
  | VBin of binop * ity * int * int
  | VCmp of cmpop * ity * int * int
  | VCast of ity * ity * int
  | VGep of int * int

module VT = Hashtbl.Make (struct
  type t = vterm

  let equal (a : t) (b : t) =
    match (a, b) with
    | VReg x, VReg y | VSlot x, VSlot y -> x = y
    | VOp x, VOp y -> equal_operand x y
    | VOff (a, k), VOff (b, k') -> a = b && k = k'
    | VBin (o, t, a, c), VBin (o', t', b, d) ->
        o = o' && t = t' && a = b && c = d
    | VCmp (o, t, a, c), VCmp (o', t', b, d) ->
        o = o' && t = t' && a = b && c = d
    | VCast (t1, t2, a), VCast (t1', t2', b) -> t1 = t1' && t2 = t2' && a = b
    | VGep (a, c), VGep (b, d) -> a = b && c = d
    | _ -> false

  let hash = Hashtbl.hash
end)

let check_cse ~vn (dom : Dom.t) (f : func) : func =
  let n = f.fnregs in
  (* [feeds.(r)]: the registers [r]'s pure definitions read *)
  let feeds = Array.make n [] and numbered = Array.make n false in
  let rel = ref [] and work = ref [] in
  let number r =
    if not numbered.(r) then begin
      numbered.(r) <- true;
      rel := r :: !rel;
      work := r :: !work
    end
  in
  (* [global.(r)]: some block reads [r] before writing it, so a value of
     [r] can flow from one block into another *)
  let global = Array.make n false and written = Array.make n (-1) in
  let any_check = ref false in
  Array.iteri
    (fun b blk ->
      let read r = if written.(r) <> b then global.(r) <- true in
      List.iter
        (fun inst ->
          (match inst with
          | Check _ | CheckFptr _ ->
              any_check := true;
              if vn then iter_reads number inst
          | Mov _ | Bin _ | Cmp _ | Cast _ | Gep _ | Slotaddr _ when vn ->
              let r = def1 inst in
              iter_reads (fun x -> feeds.(r) <- x :: feeds.(r)) inst
          | _ -> ());
          if vn then begin
            iter_reads read inst;
            iter_defs (fun r -> written.(r) <- b) inst
          end)
        blk.insts;
      if vn then iter_term_reads read blk.term)
    f.fblocks;
  while !work <> [] do
    let r = List.hd !work in
    work := List.tl !work;
    List.iter number feeds.(r)
  done;
  (* [slot.(r)]: index of a numbered register, the [ng] global ones
     first: only they are carried from block to block *)
  let slot = Array.make n (-1) and nrel = ref 0 in
  let place keep =
    List.iter
      (fun r ->
        if keep r then begin
          slot.(r) <- !nrel;
          incr nrel
        end)
      !rel
  in
  place (fun r -> global.(r));
  let ng = !nrel in
  place (fun r -> not global.(r));
  (* with nothing numbered, check-vn would redo check-cse's work *)
  if (not !any_check) || (vn && !nrel = 0) then f
  else
    let nrel = !nrel in
    (* hash-consed terms: id -> term, id -> registers it mentions *)
    let ids = VT.create 64 in
    let terms = ref [||] and mentions = ref [||] in
    (* [users.(x)]: the numbered registers whose value may mention [x] *)
    let users = Array.make n [] and seen = Array.make n (-1) in
    Array.iteri
      (fun r i ->
        let rec visit x =
          if seen.(x) <> i then begin
            seen.(x) <- i;
            users.(x) <- i :: users.(x);
            List.iter visit feeds.(x)
          end
        in
        if i >= 0 then List.iter visit feeds.(r))
      slot;
    let union a b =
      List.fold_left
        (fun acc r -> if mem_int r acc then acc else r :: acc)
        !mentions.(a) !mentions.(b)
    in
    let intern t =
      match VT.find_opt ids t with
      | Some id -> id
      | None ->
          let id = VT.length ids in
          if id = Array.length !terms then begin
            let grow a x = Array.append a (Array.make (max 16 id) x) in
            terms := grow !terms t;
            mentions := grow !mentions []
          end;
          !terms.(id) <- t;
          !mentions.(id) <-
            (match t with
            | VReg r -> [ r ]
            | VOp _ | VSlot _ -> []
            | VOff (a, _) | VCast (_, _, a) -> !mentions.(a)
            | VBin (_, _, a, b) | VCmp (_, _, a, b) | VGep (a, b) -> union a b);
          VT.add ids t id;
          id
    in
    (* a value state maps each global numbered register to a term id,
       -1 standing for the register itself; the other numbered registers
       live in [loc] for one pass over a block, current when stamped
       with that pass's number *)
    let nloc = nrel - ng in
    let loc = Array.make nloc (-1) and stamp = Array.make nloc (-1) in
    let pass = ref 0 in
    let get st i =
      if i < ng then st.(i)
      else if stamp.(i - ng) = !pass then loc.(i - ng)
      else -1
    in
    let set st i v =
      if i < ng then st.(i) <- v
      else begin
        stamp.(i - ng) <- !pass;
        loc.(i - ng) <- v
      end
    in
    let root = Array.make n (-1) in
    let value st = function
      | Reg r ->
          let i = slot.(r) in
          let v = if i >= 0 then get st i else -1 in
          if v >= 0 then v
          else begin
            if root.(r) < 0 then root.(r) <- intern (VReg r);
            root.(r)
          end
      | op -> intern (VOp op)
    in
    let const v = match !terms.(v) with VOp (ImmI c) -> Some c | _ -> None in
    let offset v k =
      let root, k0 =
        match !terms.(v) with VOff (r, k0) -> (r, k0) | _ -> (v, 0)
      in
      if k0 + k = 0 then root else intern (VOff (root, k0 + k))
    in
    let sum va vb make =
      match (const va, const vb) with
      | _, Some c -> offset va c
      | Some c, _ -> offset vb c
      | None, None -> intern make
    in
    let int_ty ty = not (ity_is_float ty) in
    (* the value an instruction gives its destination, or -1 *)
    let def_value st inst =
      let v = value st in
      match inst with
      | Gep (_, a, b, _) ->
          let va = v a and vb = v b in
          sum va vb (VGep (va, vb))
      | Bin (_, Add, ty, a, b) when wide ty ->
          let va = v a and vb = v b in
          sum va vb (VBin (Add, ty, va, vb))
      | Bin (_, op, ty, a, b) when int_ty ty -> intern (VBin (op, ty, v a, v b))
      | Mov (_, ty, o) when wide ty -> v o
      | Mov (_, ty, o) when int_ty ty -> intern (VCast (ty, ty, v o))
      | Cmp (_, op, ty, a, b) when int_ty ty -> intern (VCmp (op, ty, v a, v b))
      | Cast (_, t1, t2, o) when int_ty t1 && int_ty t2 ->
          intern (VCast (t1, t2, v o))
      | Slotaddr (_, s) -> intern (VSlot s)
      | _ -> -1
    in
    let kill st x =
      List.iter
        (fun i ->
          let v = get st i in
          if v >= 0 && mem_int x !mentions.(v) then set st i (-1))
        users.(x)
    in
    let vstep st inst =
      let r = def1 inst in
      if r >= 0 && slot.(r) >= 0 then begin
        let v = def_value st inst in
        kill st r;
        set st slot.(r)
          (if v >= 0 && not (mem_int r !mentions.(v)) then v else -1)
      end
      else
        iter_defs
          (fun d ->
            kill st d;
            if slot.(d) >= 0 then set st slot.(d) (-1))
          inst
    in
    (* the operand values of each check, as the last pass over its block
       saw them: with the block-entry values at their fixpoint *)
    let operands =
      Array.map (fun blk -> Array.make (List.length blk.insts) [||]) f.fblocks
    in
    let scan b st =
      incr pass;
      List.iteri
        (fun i inst ->
          match inst with
          | Check (p, b_, e, _, _) | CheckFptr (p, b_, e, _, _) ->
              operands.(b).(i) <- [| value st p; value st b_; value st e |]
          | _ -> vstep st inst)
        f.fblocks.(b).insts
    in
    (if nrel = 0 then
       Array.iteri
         (fun b _ -> if Dom.reachable dom b then scan b [||])
         f.fblocks
     else
       let (_ : int -> _ option) =
         forward dom ~entry:(Array.make ng (-1))
           ~meet:(Array.map2 (fun (a : int) b -> if a = b then a else -1))
           ~equal:same_ints
           ~transfer:(fun b s ->
             let st = Array.copy s in
             scan b st;
             st)
       in
       ());
    (* fact ids: one per distinct check key; [gen] is each instruction's
       (fact, width), [kills.(r)] the facts a redefinition of [r] kills *)
    let facts = Hashtbl.create 16 and nf = ref 0 and dup = ref false in
    let kills = Array.make n [] in
    let fact key =
      match Hashtbl.find_opt facts key with
      | Some id ->
          dup := true;
          id
      | None ->
          let id = !nf in
          incr nf;
          Hashtbl.add facts key id;
          Array.iter
            (fun v ->
              List.iter (fun r -> kills.(r) <- id :: kills.(r)) !mentions.(v))
            (fst key);
          id
    in
    let gen =
      Array.mapi
        (fun b blk ->
          Array.of_list
            (List.mapi
               (fun i inst ->
                 let vs = operands.(b).(i) in
                 if Array.length vs = 0 then (-1, 0)
                 else
                   match inst with
                   | Check (_, _, _, w, _) -> (fact (vs, None), w)
                   | CheckFptr (_, _, _, h, _) -> (fact (vs, Some h), 0)
                   | _ -> (-1, 0))
               blk.insts))
        f.fblocks
    in
    if not !dup then f
    else
      (* a fact's state is the largest width every path has checked it
         at; -1 is unavailable *)
      let fstep st g inst =
        match g with
        | id, w when id >= 0 -> if w > st.(id) then st.(id) <- w
        | _ ->
            iter_defs
              (fun d -> List.iter (fun k -> st.(k) <- -1) kills.(d))
              inst
      in
      let avail =
        forward dom ~entry:(Array.make !nf (-1))
          ~meet:(Array.map2 (fun (a : int) b -> if a < b then a else b))
          ~equal:same_ints
          ~transfer:(fun b s ->
            let st = Array.copy s in
            List.iteri
              (fun i inst -> fstep st gen.(b).(i) inst)
              f.fblocks.(b).insts;
            st)
      in
      let rewrite b blk =
        match avail b with
        | None -> blk
        | Some s ->
            let st = Array.copy s in
            let kept =
              List.filteri
                (fun i inst ->
                  let ((id, w) as g) = gen.(b).(i) in
                  if id >= 0 && st.(id) >= w then false
                  else begin
                    fstep st g inst;
                    true
                  end)
                blk.insts
            in
            if List.compare_lengths kept blk.insts = 0 then blk
            else { blk with insts = kept }
      in
      { f with fblocks = Array.mapi rewrite f.fblocks }

(* ------------------------------------------------------------------ *)
(* copy-coalesce, copy-prop, dead-meta: metadata copy cleanup          *)
(* ------------------------------------------------------------------ *)

(* The IR is not SSA, so the transformation writes every metadata flow
   as a 1-cycle [Mov] into a metadata register: the shrink base, the
   mirror of each program pointer copy, the copy out of a [MetaLoad]
   into the metadata of the variable it feeds.  The paper's LLVM
   pipeline carries the same flows in SSA values, which the register
   coalescer turns into no instruction.  The three passes below do that
   here; they read and rewrite only registers [>= meta_floor], delete
   only pure register instructions, and never touch a [MetaLoad],
   [MetaStore], check or program instruction, so the memory trace is
   unchanged and the cycle count can only go down. *)

(** Fixed-size bit sets over [0, n) as int arrays. *)
module Bits = struct
  let w = Sys.int_size

  let create n = Array.make ((n + w - 1) / w) 0
  let mem s i = s.(i / w) land (1 lsl (i mod w)) <> 0
  let add s i = s.(i / w) <- s.(i / w) lor (1 lsl (i mod w))
  let remove s i = s.(i / w) <- s.(i / w) land lnot (1 lsl (i mod w))

  let rec add_all s = function
    | [] -> ()
    | i :: l ->
        add s i;
        add_all s l

  let rec remove_all s = function
    | [] -> ()
    | i :: l ->
        remove s i;
        remove_all s l

  let inter_into dst src =
    for k = 0 to Array.length dst - 1 do
      dst.(k) <- dst.(k) land src.(k)
    done

  let union_into dst src =
    for k = 0 to Array.length dst - 1 do
      dst.(k) <- dst.(k) lor src.(k)
    done
end

let rename_def (t : reg) (d : reg) (inst : inst) : inst =
  let rn r = if r = t then d else r in
  match inst with
  | Mov (r, ty, o) -> Mov (rn r, ty, o)
  | Bin (r, op, ty, a, b) -> Bin (rn r, op, ty, a, b)
  | Cmp (r, op, ty, a, b) -> Cmp (rn r, op, ty, a, b)
  | Cast (r, to_, from_, o) -> Cast (rn r, to_, from_, o)
  | Load (r, ty, a) -> Load (rn r, ty, a)
  | Gep (r, a, b, s) -> Gep (rn r, a, b, s)
  | Slotaddr (r, s) -> Slotaddr (rn r, s)
  | Call c -> Call { c with rets = List.map rn c.rets }
  | MetaLoad (r1, r2, a, site) -> MetaLoad (rn r1, rn r2, a, site)
  | Store _ | SetBoundMark _ | Check _ | CheckFptr _ | MetaStore _
  | CheckSpan _ ->
      inst

(** copy-coalesce: a metadata temp [t] defined once and read once, by a wide
    [Mov (d, _, Reg t)] later in the same block into a metadata register
    [d] that nothing reads or writes in between, is defined straight
    into [d] and the [Mov] dropped.  One linear scan per block, with the
    function's def/use counts taken once. *)
let coalesce_copies ~meta_floor (f : func) : func =
  let is_copy = function
    | Mov (d, ty, Reg t) -> wide ty && d >= meta_floor && t >= meta_floor
    | _ -> false
  in
  if not (Array.exists (fun blk -> List.exists is_copy blk.insts) f.fblocks)
  then f
  else
    let n = f.fnregs in
    let defs = Array.make n 0 and uses = Array.make n 0 in
    let def r = defs.(r) <- defs.(r) + 1
    and use r = uses.(r) <- uses.(r) + 1 in
    List.iter (fun (r, _) -> def r) f.fparams;
    Option.iter
      (fun (a, b) ->
        def a;
        def b)
      f.fva_regs;
    Array.iter
      (fun blk ->
        List.iter
          (fun inst ->
            iter_defs def inst;
            iter_reads use inst)
          blk.insts;
        iter_term_reads use blk.term)
      f.fblocks;
    let single r = r >= meta_floor && defs.(r) = 1 && uses.(r) = 1 in
    (* positions count instructions across the whole function, so a
       position from an earlier block is below every one of this block *)
    let touched = Array.make n (-1) and pending = Array.make n (-1) in
    let clock = ref 0 in
    let block blk =
      let insts = Array.of_list blk.insts in
      let base = !clock in
      clock := base + Array.length insts;
      let keep = Array.make (Array.length insts) true in
      let writes p d =
        let w = ref false in
        iter_defs (fun r -> if r = d then w := true) insts.(p - base);
        !w
      in
      Array.iteri
        (fun i inst ->
          match inst with
          | Mov (d, _, Reg t)
            when is_copy inst && d <> t && single t && pending.(t) >= base
                 && touched.(d) <= pending.(t)
                 && not (writes pending.(t) d) ->
              let p = pending.(t) in
              insts.(p - base) <- rename_def t d insts.(p - base);
              keep.(i) <- false;
              touched.(d) <- p;
              if single d then pending.(d) <- p
          | _ ->
              let pos = base + i in
              iter_reads (fun r -> touched.(r) <- pos) inst;
              iter_defs
                (fun r ->
                  touched.(r) <- pos;
                  if single r then pending.(r) <- pos)
                inst)
        insts;
      if Array.for_all Fun.id keep then blk
      else
        let kept = ref [] in
        for i = Array.length insts - 1 downto 0 do
          if keep.(i) then kept := insts.(i) :: !kept
        done;
        { blk with insts = !kept }
    in
    { f with fblocks = Array.map block f.fblocks }

(** copy-prop: forward available-copies dataflow over the wide [Mov]s
    into metadata registers, on {!forward} with the intersection meet.
    A fact [d = s] dies when [d] or [s] is redefined;
    while it holds, [s] replaces every read of [d] (transitively,
    through facts on [s]). *)
let propagate_copies ~meta_floor (dom : Dom.t) (f : func) : func =
  let n = f.fnregs in
  (* facts on each metadata register [d], as (s, id); the facts a
     redefinition of each register kills *)
  let on = Array.make n [] and kills = Array.make n [] in
  let nf = ref 0 in
  let fact d s =
    match List.find_opt (fun (s', _) -> equal_operand s s') on.(d) with
    | Some (_, id) -> id
    | None ->
        let id = !nf in
        incr nf;
        on.(d) <- (s, id) :: on.(d);
        kills.(d) <- id :: kills.(d);
        (match s with Reg r -> kills.(r) <- id :: kills.(r) | _ -> ());
        id
  in
  (* per block, the fact each instruction generates (-1: none) *)
  let gen =
    Array.map
      (fun blk ->
        Array.of_list
          (List.map
             (function
               | Mov (d, ty, s)
                 when wide ty && d >= meta_floor
                      && not (equal_operand s (Reg d)) ->
                   fact d s
               | _ -> -1)
             blk.insts))
      f.fblocks
  in
  if !nf = 0 then f
  else
    let nf = !nf in
    let transfer set g inst =
      iter_defs (fun r -> Bits.remove_all set kills.(r)) inst;
      if g >= 0 then Bits.add set g
    in
    (* each block's facts generated and killed, so the fixpoint below
       walks blocks, not instructions *)
    let summary b blk =
      let g = Bits.create nf and k = Bits.create nf in
      List.iteri
        (fun i inst ->
          iter_defs
            (fun r ->
              Bits.remove_all g kills.(r);
              Bits.add_all k kills.(r))
            inst;
          if gen.(b).(i) >= 0 then Bits.add g gen.(b).(i))
        blk.insts;
      (g, k)
    in
    let summaries = Array.mapi summary f.fblocks in
    let in_of =
      forward dom ~entry:(Bits.create nf)
        ~meet:(fun a b ->
          let a = Array.copy a in
          Bits.inter_into a b;
          a)
        ~equal:same_ints
        ~transfer:(fun b set ->
          let g, k = summaries.(b) in
          Array.mapi (fun w s -> s land lnot k.(w) lor g.(w)) set)
    in
    let copied set r =
      if r < meta_floor then None
      else List.find_opt (fun (_, id) -> Bits.mem set id) on.(r)
    in
    let rec resolve set fuel op =
      match op with
      | Reg r when fuel > 0 -> (
          match copied set r with
          | Some (s, _) -> resolve set (fuel - 1) s
          | None -> op)
      | _ -> op
    in
    let rewrite b blk =
      match in_of b with
      | None -> blk
      | Some set ->
          let set = Array.copy set in
          let sub = resolve set nf in
          let hit = ref false in
          let read r = if copied set r <> None then hit := true in
          let any = ref false in
          let insts =
            List.mapi
              (fun i inst ->
                hit := false;
                iter_reads read inst;
                let inst =
                  if !hit then begin
                    any := true;
                    map_inst_operands sub inst
                  end
                  else inst
                in
                transfer set gen.(b).(i) inst;
                inst)
              blk.insts
          in
          hit := false;
          iter_term_reads read blk.term;
          if !hit then
            { insts; term = map_term_operands sub blk.term }
          else if !any then { blk with insts }
          else blk
    in
    { f with fblocks = Array.mapi rewrite f.fblocks }

(** dead-meta: backward liveness over the metadata registers, as bit
    sets; a pure instruction whose destination is a dead metadata
    register is deleted.  Its reads then make nothing live, so a whole
    dead chain goes in one fixpoint. *)
let dead_meta ~meta_floor (dom : Dom.t) (f : func) : func =
  let nm = f.fnregs - meta_floor in
  if nm <= 0 then f
  else
    let meta acc r = if r >= meta_floor then (r - meta_floor) :: acc else acc in
    let inert = (-1, [], []) in
    (* per instruction: the metadata register it may be deleted for (-1:
       never deleted), and the metadata registers it writes and reads *)
    let code =
      Array.map
        (fun blk ->
          Array.of_list
            (List.map
               (fun inst ->
                 let d = def1 inst in
                 let del =
                   if hoistable_pure inst && d >= meta_floor then
                     d - meta_floor
                   else -1
                 in
                 let defs = ref [] and uses = ref [] in
                 iter_defs (fun r -> defs := meta !defs r) inst;
                 iter_reads (fun r -> uses := meta !uses r) inst;
                 if del < 0 && !defs = [] && !uses = [] then inert
                 else (del, !defs, !uses))
               blk.insts))
        f.fblocks
    in
    let dead live (del, _, _) = del >= 0 && not (Bits.mem live del) in
    let step live ((_, defs, uses) as c) =
      if not (dead live c) then begin
        Bits.remove_all live defs;
        Bits.add_all live uses
      end
    in
    let term_uses =
      Array.map
        (fun blk ->
          List.fold_left
            (fun acc -> function Reg r -> meta acc r | _ -> acc)
            [] (term_ops blk.term))
        f.fblocks
    in
    let live_in = Array.map (fun _ -> Bits.create nm) f.fblocks in
    let live_out b =
      let live = Bits.create nm in
      List.iter (fun s -> Bits.union_into live live_in.(s)) dom.Dom.succs.(b);
      Bits.add_all live term_uses.(b);
      live
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for k = Array.length dom.Dom.rpo - 1 downto 0 do
        let b = dom.Dom.rpo.(k) in
        let live = live_out b in
        for i = Array.length code.(b) - 1 downto 0 do
          step live code.(b).(i)
        done;
        if live <> live_in.(b) then begin
          live_in.(b) <- live;
          changed := true
        end
      done
    done;
    let rewrite b blk =
      if not (Dom.reachable dom b) then blk
      else
        let live = live_out b in
        let insts = Array.of_list blk.insts in
        let kept = ref [] and dropped = ref false in
        for i = Array.length insts - 1 downto 0 do
          let c = code.(b).(i) in
          if dead live c then dropped := true
          else begin
            step live c;
            kept := insts.(i) :: !kept
          end
        done;
        if !dropped then { blk with insts = !kept } else blk
    in
    { f with fblocks = Array.mapi rewrite f.fblocks }

(* ------------------------------------------------------------------ *)
(* The pass list                                                        *)
(* ------------------------------------------------------------------ *)

(** What a sub-pass sees besides the function: the metadata floor and
    the function's CFG analysis, computed on first use and shared by the
    passes that keep the CFG (every one after widening). *)
type env = { meta_floor : int; dom : Dom.t Lazy.t }

type gate = Always | Widen | Cleanup | Values

type pass = {
  name : string;
  gate : gate;
  keeps_cfg : bool;
  run : env -> func -> func;
}

let passes =
  let pass ?(keeps_cfg = true) name gate run = { name; gate; keeps_cfg; run } in
  let floor e = e.meta_floor and dom e = Lazy.force e.dom in
  [
    pass "hoist" Always ~keeps_cfg:false (fun e ->
        hoist_loops ~meta_floor:(floor e));
    pass "widen" Widen ~keeps_cfg:false (fun _ -> widen_loops);
    pass "coalesce" Widen (fun _ -> coalesce_blocks);
    pass "metaload-cse" Always (fun _ -> local_metaload_cse);
    pass "check-cse" Always (fun e -> check_cse ~vn:false (dom e));
    pass "check-vn" Values (fun e -> check_cse ~vn:true (dom e));
    pass "copy-coalesce" Cleanup (fun e ->
        coalesce_copies ~meta_floor:(floor e));
    pass "copy-prop" Cleanup (fun e ->
        propagate_copies ~meta_floor:(floor e) (dom e));
    pass "dead-meta" Cleanup (fun e -> dead_meta ~meta_floor:(floor e) (dom e));
  ]

let pass_names = List.map (fun p -> p.name) passes

let size (f : func) =
  Array.fold_left (fun acc blk -> acc + List.length blk.insts) 0 f.fblocks

let elim_func ~(meta_floor : int) ?(widen = true) ?(cleanup = true)
    ?(value_numbering = true) ?record (f : func) : func =
  (* the longjmp edge back into a function that calls setjmp is missing
     from its CFG, so no dataflow over it is sound *)
  if may_call_setjmp f then f
  else
    let on = function
      | Always -> true
      | Widen -> widen
      | Cleanup -> cleanup
      | Values -> value_numbering
    in
    let analyze f = { meta_floor; dom = lazy (Dom.compute f) } in
    let run p env f =
      match record with
      | None -> p.run env f
      | Some k ->
          let f' = p.run env f in
          k p.name (size f - size f');
          f'
    in
    fst
      (List.fold_left
         (fun (f, env) p ->
           if not (on p.gate) then (f, env)
           else
             let f = run p env f in
             (f, if p.keeps_cfg then env else analyze f))
         (f, analyze f) passes)

(** Static instrumentation census, for tests and reporting. *)
let count_insts (p : inst -> bool) (f : func) : int =
  Array.fold_left
    (fun acc blk ->
      acc + List.length (List.filter p blk.insts))
    0 f.fblocks

let count_checks =
  count_insts (function Check _ | CheckFptr _ -> true | _ -> false)

let count_metaloads = count_insts (function MetaLoad _ -> true | _ -> false)

(** Loop-widened spans: one preheader check standing for a whole loop's
    per-iteration checks (empty [sp_sites]). *)
let count_widened =
  count_insts (function
    | CheckSpan { sp_sites; _ } -> Array.length sp_sites = 0
    | _ -> false)

(** Checks saved by in-block coalescing: members beyond the first of
    each multi-site span. *)
let count_coalesced (f : func) : int =
  Array.fold_left
    (fun acc blk ->
      List.fold_left
        (fun acc inst ->
          match inst with
          | CheckSpan { sp_sites; _ } -> acc + max 0 (Array.length sp_sites - 1)
          | _ -> acc)
        acc blk.insts)
    0 f.fblocks
