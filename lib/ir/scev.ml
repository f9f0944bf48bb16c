(* SCEV-lite: affine scalar evolution over natural loops.

   The full scalar-evolution machinery of a production compiler reduces,
   for the loops our structured lowering emits, to a small core: find
   the loop's single induction variable from its header guard, classify
   registers as affine recurrences [{base, +stride}] in that variable,
   and bound the trip count from the guard.  That core is exactly what
   the check-widening sub-pass of [Elim] needs: a per-iteration bounds
   check on an address that is affine in the induction variable can be
   replaced by one preheader check over the whole arithmetic
   progression, provided the trip count is exact and the progression's
   first element and length can be materialized at loop entry.

   The analysis is deliberately conservative.  It recognizes loops of
   the shape the lowering produces —

     preheader:  iv <- init; ...
     header:     [t <- n - 1;]  c <- cmp (lt|le) iv limit;  br c, body, exit
     body..:     ...;  iv <- iv + s  (s >= 1, executed once per
     latch:      jmp header           iteration, dominating every latch)

   — and refuses everything else: down-counting loops, multi-exit
   loops (early [break]), loops containing calls (a callee can write
   output or exit, so checking later iterations' addresses early would
   be observable), instructions that can trap between two widened
   iterations (integer division by a register, float remainder — float
   division cannot trap), and guards whose arithmetic could wrap
   (unsigned 32-bit induction variables are accepted only in the
   stride-1 strict-less-than form; signed 32-bit arithmetic relies on
   the C signed-overflow-is-UB assumption, documented in DESIGN.md).
   The limit is a loop invariant, or a value the header recomputes
   before the guard from loop invariants by integer [Add]/[Sub] (the
   [i < n - 1] of a stencil loop); the trip-count code clones that
   computation into the preheader.

   Addresses are classified by a positional expansion: expanding
   register [r] as read at position [pos] follows in-loop single
   definitions through value-preserving arithmetic down to loop
   invariants and the induction variable, yielding a static byte stride
   per iteration and the definition chain to clone — evaluated in the
   preheader, where the induction variable still holds its initial
   value, the cloned chain computes the progression's first address. *)

open Ir

type pos = int * int
(** (block id, instruction index) *)

type t = {
  sc_dom : Dom.t;
  sc_loop : Dom.loop;
  sc_iv : reg;  (** the induction variable *)
  sc_ty : ity;  (** type of the header guard comparison *)
  sc_stride : int;  (** IV units added per iteration, >= 1 *)
  sc_cle : bool;  (** guard is [iv <= limit] rather than [iv < limit] *)
  sc_limit : operand;  (** guard limit, invariant across iterations *)
  sc_limit_chain : inst list;
      (** the header's definitions of [sc_limit] from loop invariants,
          in dependency order; empty when the limit is itself invariant *)
  sc_inc_pos : pos;  (** position of the write to [sc_iv] *)
  sc_defs : (reg, pos * inst) Hashtbl.t;  (** single in-loop definitions *)
  sc_multi : (reg, unit) Hashtbl.t;  (** regs defined more than once *)
}

type affine = {
  af_stride : int;  (** byte delta per iteration, >= 1 *)
  af_chain : (pos * inst) list;
      (** in-loop definition chain of the address, in dependency order;
          cloned into the preheader it computes the first element *)
}

(* ------------------------------------------------------------------ *)
(* Loop scan                                                            *)
(* ------------------------------------------------------------------ *)

(** Strictly-before on every execution: same block earlier, or the
    defining block strictly dominates the reading block.  (Transitive,
    which is what the chain-ordering argument in [affine_addr] needs.) *)
let precedes (d : Dom.t) ((b, i) : pos) ((b', i') : pos) : bool =
  if b = b' then i < i' else Dom.dominates d b b'

let dcount (t : t) (r : reg) : int =
  if Hashtbl.mem t.sc_multi r then 2
  else if Hashtbl.mem t.sc_defs r then 1
  else 0

(** Operand whose value cannot change while the loop runs. *)
let invariant_op (t : t) (op : operand) : bool =
  match op with Reg r -> dcount t r = 0 | _ -> true

(* ------------------------------------------------------------------ *)
(* Guard and induction-variable recognition                             *)
(* ------------------------------------------------------------------ *)

(** Wrap-safety of the guard arithmetic: 63-bit-native wide types never
    wrap in practice; I32 relies on signed-overflow UB; U32 is safe only
    when the variable steps by 1 up to a strict bound. *)
let guard_ty_ok ty ~stride ~cle =
  match ty with
  | I64 | U64 | P | I32 -> true
  | U32 -> stride = 1 && not cle
  | _ -> false

(** Recognize [iv]'s in-loop update and return its stride and the
    position of the write to [iv].  Two shapes, matching the lowering:
    a direct [iv <- iv + c], or the two-instruction [tmp <- iv + c;
    iv <- tmp] / [tmp <- gep iv, c; iv <- tmp] with both halves in the
    same block. *)
let recognize_update (t0 : (reg, pos * inst) Hashtbl.t)
    (multi : (reg, unit) Hashtbl.t) (iv : reg) : (int * pos) option =
  if Hashtbl.mem multi iv then None
  else
    match Hashtbl.find_opt t0 iv with
    | Some (pos, Bin (x, Add, _, Reg x', ImmI c)) when x = iv && x' = iv ->
        if c >= 1 then Some (c, pos) else None
    | Some ((mb, mi), Mov (x, _, Reg y)) when x = iv -> (
        if Hashtbl.mem multi y then None
        else
          match Hashtbl.find_opt t0 y with
          | Some (((db, di) as _dpos), Bin (y', Add, _, Reg x', ImmI c))
            when y' = y && x' = iv && db = mb && di < mi ->
              if c >= 1 then Some (c, (mb, mi)) else None
          | Some (((db, di) as _dpos), Gep (y', Reg x', ImmI c, None))
            when y' = y && x' = iv && db = mb && di < mi ->
              if c >= 1 then Some (c, (mb, mi)) else None
          | _ -> None)
    | _ -> None

(** Analyze one natural loop of [f].  [Some t] means the loop has the
    canonical counted shape and is free of the constructs that make
    early span checking observable (calls, register-divisor division,
    in-loop returns, extra exits); [None] refuses. *)
let analyze (f : func) (dom : Dom.t) (loop : Dom.loop) : t option =
  let ( let* ) = Option.bind in
  let body = loop.Dom.body in
  (* Single-exit through the header only: an early [break] adds an exit
     block and is refused here. *)
  let* () = if loop.Dom.exits = [ loop.Dom.header ] then Some () else None in
  (* Scan the body once: definition table, and the refusal triggers. *)
  let defs = Hashtbl.create 32 in
  let multi = Hashtbl.create 8 in
  let clean = ref true in
  Array.iteri
    (fun b blk ->
      if body.(b) && Dom.reachable dom b then begin
        (match blk.term with
        | TRet _ | TUnreachable -> clean := false
        | _ -> ());
        List.iteri
          (fun i inst ->
            (match inst with
            | Call _ -> clean := false
            | Bin (_, op, ty, _, d) when bin_may_trap op ty d ->
                (* a trap between widened iterations would come after the
                   span check already reported a later iteration *)
                clean := false
            | _ -> ());
            List.iter
              (fun r ->
                if Hashtbl.mem defs r then Hashtbl.replace multi r ()
                else Hashtbl.replace defs r ((b, i), inst))
              (defs_of inst))
          blk.insts
      end)
    f.fblocks;
  let* () = if !clean then Some () else None in
  (* Header guard: a freshly computed comparison driving the sole
     conditional exit. *)
  let header = f.fblocks.(loop.Dom.header) in
  let* c, t1, t2 =
    match header.term with
    | TBr (Reg c, t1, t2) -> Some (c, t1, t2)
    | _ -> None
  in
  let* cmp_idx, cmp, ty, a, b =
    match Hashtbl.find_opt defs c with
    | Some ((cb, ci), Cmp (_, cmp, ty, a, b))
      when cb = loop.Dom.header && not (Hashtbl.mem multi c) ->
        Some (ci, cmp, ty, a, b)
    | _ -> None
  in
  (* Normalize to continue-on-true. *)
  let* cmp =
    match (body.(t1), body.(t2)) with
    | true, false -> Some cmp
    | false, true -> Some (negate_cmp cmp)
    | _ -> None
  in
  (* Normalize to [iv (lt|le) limit] with the variable on the left. *)
  let varies = function Reg r -> Hashtbl.mem defs r | _ -> false in
  (* The definitions of a limit the header computes before position
     [before] from loop invariants by single integer [Add]/[Sub]s, in
     dependency order; [Some []] for an invariant operand. *)
  let rec limit_chain before (o : operand) : inst list option =
    if not (varies o) then Some []
    else
      match o with
      | Reg r when not (Hashtbl.mem multi r) -> (
          match Hashtbl.find defs r with
          | (db, di), (Bin (_, (Add | Sub), ty, x, y) as inst)
            when db = loop.Dom.header && di < before
                 && not (ity_is_float ty) ->
              let* cx = limit_chain di x in
              let* cy = limit_chain di y in
              Some (cx @ cy @ [ inst ])
          | _ -> None)
      | _ -> None
  in
  let* cle, iv_side, limit =
    match cmp with
    | Clt when varies a -> Some (false, a, b)
    | Cle when varies a -> Some (true, a, b)
    | Cgt when varies b -> Some (false, b, a)
    | Cge when varies b -> Some (true, b, a)
    | _ -> None
  in
  let* limit_chain = limit_chain cmp_idx limit in
  let* iv = match iv_side with Reg r -> Some r | _ -> None in
  let* stride, inc_pos = recognize_update defs multi iv in
  let* () = if guard_ty_ok ty ~stride ~cle then Some () else None in
  (* The update must run exactly once per iteration: its block has to
     dominate every latch (and, the loop being innermost when the
     widener uses this, a latch-dominating block runs once per pass). *)
  let* () =
    if List.for_all (fun l -> Dom.dominates dom (fst inc_pos) l)
         loop.Dom.latches
    then Some ()
    else None
  in
  Some
    {
      sc_dom = dom;
      sc_loop = loop;
      sc_iv = iv;
      sc_ty = ty;
      sc_stride = stride;
      sc_cle = cle;
      sc_limit = limit;
      sc_limit_chain = limit_chain;
      sc_inc_pos = inc_pos;
      sc_defs = defs;
      sc_multi = multi;
    }

(* ------------------------------------------------------------------ *)
(* Positional affine expansion                                          *)
(* ------------------------------------------------------------------ *)

(* Coefficient tracking: expanding an operand yields its derivative
   with respect to the induction variable (in IV units) plus the chain
   of in-loop definitions it passes through.  Only value-preserving
   arithmetic may carry a non-zero coefficient; instructions whose
   register inputs are all invariant are admitted with coefficient 0
   regardless of operation (their cloned value is identical), except
   those that can trap or read memory. *)

(** May this instruction's clone run speculatively in the preheader?
    Pure register arithmetic only: no loads (the chain would then not be
    invariant anyway — a loaded register is a chain leaf only when
    defined outside the loop), no division, no side effects. *)
let cloneable = function
  | Bin (_, (Div | Rem), _, _, _) -> false
  | Mov _ | Bin _ | Cmp _ | Cast _ | Gep _ -> true
  | _ -> false

(** Types whose affine arithmetic cannot wrap in our 63-bit value model
    (I32 under the C signed-overflow-UB assumption). *)
let affine_ty_ok = function I32 | I64 | U64 | P -> true | _ -> false

exception Not_affine

let affine_addr (t : t) (pos : pos) (op : operand) : affine option =
  let dom = t.sc_dom in
  (* chain positions collected in discovery order; deduplicated and
     sorted for emission afterwards *)
  let chain : (pos, inst) Hashtbl.t = Hashtbl.create 8 in
  let rec coeff_op (o : operand) : int =
    match o with
    | Reg r -> coeff_reg r
    | ImmI _ | ImmF _ | Glob _ | GlobEnd _ | Func _ -> 0
  and coeff_reg (r : reg) : int =
    if r = t.sc_iv then 1
    else
      match dcount t r with
      | 0 -> 0 (* invariant leaf *)
      | 1 ->
          let ((dpos, inst) as def) = Hashtbl.find t.sc_defs r in
          (* the definition must run before the read point on every
             iteration's path, and after the argument-ordering theorem
             in the header comment, before the IV update too *)
          if not (precedes dom dpos pos) then raise Not_affine;
          if not (cloneable inst) then raise Not_affine;
          let k = coeff_inst inst in
          Hashtbl.replace chain dpos (snd def);
          k
      | _ -> raise Not_affine
  and coeff_inst (inst : inst) : int =
    match inst with
    | Mov (_, ty, o) ->
        let k = coeff_op o in
        if k <> 0 && not (affine_ty_ok ty) then raise Not_affine;
        k
    | Cast (_, to_, from_, o) ->
        let k = coeff_op o in
        if k = 0 then 0
        else if
          (* value-preserving widening only: sign-extension of a no-wrap
             I32, or moves among the wide 63-bit types *)
          (match to_ with I64 | U64 | P -> true | _ -> false)
          && match from_ with I32 | I64 | U64 | P -> true | _ -> false
        then k
        else raise Not_affine
    | Bin (_, bop, ty, a, b) -> (
        let ka = coeff_op a and kb = coeff_op b in
        if ka = 0 && kb = 0 then 0
        else if not (affine_ty_ok ty) then raise Not_affine
        else
          match bop with
          | Add -> ka + kb
          | Sub -> ka - kb
          | Mul -> (
              match (a, b) with
              | _, ImmI c when kb = 0 -> ka * c
              | ImmI c, _ when ka = 0 -> c * kb
              | _ -> raise Not_affine)
          | Shl -> (
              match b with
              | ImmI c when kb = 0 && c >= 0 && c < 32 -> ka * (1 lsl c)
              | _ -> raise Not_affine)
          | _ -> raise Not_affine)
    | Gep (_, base, off, _) ->
        (* byte-level pointer arithmetic; the shrink marker affects
           metadata, not the address value *)
        coeff_op base + coeff_op off
    | Cmp (_, _, _, a, b) ->
        if coeff_op a = 0 && coeff_op b = 0 then 0 else raise Not_affine
    | _ -> raise Not_affine
  in
  match
    (* the IV must still hold this iteration's value at [pos] *)
    if precedes dom t.sc_inc_pos pos then None
    else
      let k = coeff_op op in
      let stride_bytes = k * t.sc_stride in
      if stride_bytes < 1 then None (* invariant or down-counting address *)
      else
        let af_chain =
          Hashtbl.fold (fun p i acc -> (p, i) :: acc) chain []
          |> List.sort (fun ((b1, i1), _) ((b2, i2), _) ->
                 compare
                   (dom.Dom.rpo_pos.(b1), i1)
                   (dom.Dom.rpo_pos.(b2), i2))
        in
        Some { af_stride = stride_bytes; af_chain }
  with
  | exception Not_affine -> None
  | r -> r

(* ------------------------------------------------------------------ *)
(* Preheader materialization                                            *)
(* ------------------------------------------------------------------ *)

(** Clone [insts] (pure register arithmetic, in dependency order) over
    fresh destination registers and rewrite [root] to read the clone.
    Registers the clones do not define are read in place. *)
let clone_insts ~(fresh : unit -> reg) (insts : inst list) (root : operand)
    : inst list * operand =
  let map : (reg, reg) Hashtbl.t = Hashtbl.create 8 in
  let sub_op = function
    | Reg r as o -> (
        match Hashtbl.find_opt map r with
        | Some r' -> Reg r'
        | None -> o)
    | o -> o
  in
  let clone_def r =
    let r' = fresh () in
    Hashtbl.replace map r r';
    r'
  in
  let insts =
    List.map
      (fun inst ->
        let inst = map_inst_operands sub_op inst in
        match inst with
        | Mov (r, ty, o) -> Mov (clone_def r, ty, o)
        | Bin (r, op, ty, a, b) -> Bin (clone_def r, op, ty, a, b)
        | Cmp (r, op, ty, a, b) -> Cmp (clone_def r, op, ty, a, b)
        | Cast (r, to_, from_, o) -> Cast (clone_def r, to_, from_, o)
        | Gep (r, a, b, s) -> Gep (clone_def r, a, b, s)
        | _ -> assert false (* callers clone pure arithmetic only *))
      insts
  in
  (insts, sub_op root)

(** Instructions computing the loop's exact trip count at the preheader,
    where [sc_iv] still holds its initial value:
    [count = ceil((limit - iv0 (+1 if <=)) / stride)]; a non-positive
    result is the zero-trip case the span check passes vacuously.  A
    header-computed limit is recomputed first from its invariant
    inputs. *)
let emit_count (t : t) ~(fresh : unit -> reg) : inst list * operand =
  let limit_insts, limit = clone_insts ~fresh t.sc_limit_chain t.sc_limit in
  let d = fresh () in
  let insts = ref [ Bin (d, Sub, I64, limit, Reg t.sc_iv) ] in
  let last = ref d in
  if t.sc_cle then begin
    let d2 = fresh () in
    insts := Bin (d2, Add, I64, Reg !last, ImmI 1) :: !insts;
    last := d2
  end;
  if t.sc_stride > 1 then begin
    let d3 = fresh () in
    insts := Bin (d3, Add, I64, Reg !last, ImmI (t.sc_stride - 1)) :: !insts;
    let q = fresh () in
    insts := Bin (q, Div, I64, Reg d3, ImmI t.sc_stride) :: !insts;
    last := q
  end;
  (limit_insts @ List.rev !insts, Reg !last)

(** Clone an affine chain into preheader instructions over fresh
    registers and rewrite [root] (the checked address operand) to read
    the clone.  Reads of the induction variable are left in place: at
    the preheader it holds the initial value, so the clone computes the
    progression's first element. *)
let clone_chain ~(fresh : unit -> reg) (af : affine) (root : operand) :
    inst list * operand =
  clone_insts ~fresh (List.map snd af.af_chain) root
