(* Flow-sensitive interval analysis for static bounds-check discharge.

   SoftBound's prototype re-runs LLVM's optimizers over the
   instrumented code (paper section 6.1); besides removing redundant
   checks, that cleanup drops checks the compiler can prove in bounds.
   This module is the proving half for the accesses it can see whole:
   a load or store through a pointer reached from a global ([Glob]) or a
   stack slot ([Slotaddr]) by [Gep]s, whose byte range provably lies
   inside the static extent the pointer's metadata carries.

   The analysis runs over the {e pre-instrumentation} IR of one function
   and tracks, per register and program point, either an integer
   interval or a static pointer: a root (global or slot), the interval
   of byte offsets of the address from the root, and — after a
   struct-field [Gep] with a shrink marker, when bounds shrinking is on
   — the offset interval from the start of the shrunk window and the
   window's size.  The metadata the transformation will attach to such
   a pointer is exactly the root's extent ([g, g + gsize) or
   [s, s + sl_size)) or the window, because [Transform] propagates
   metadata along the same [Mov P]/[Gep] edges this analysis follows;
   everything else (loads, call results, integer-to-pointer casts,
   parameters, [Mov]s at a non-pointer type) is unknown.

   Interval rules follow the VM's arithmetic exactly: 63-bit native
   integers, narrowed to the instruction's type by [Ir.norm_int].  A
   result that may leave its type's range (or wrap the native word)
   becomes the type's full range — there is no signed-overflow-is-UB
   assumption here.  Branch guards refine both compared operands
   ([<], [<=], [>], [>=], [=]); [<>] trims an endpoint, including
   [x % k <> c] for [x >= 0].  Loop headers widen after two visits, so
   the fixpoint is reached in a few passes.

   Functions that call [setjmp] (directly, or possibly through an
   indirect call) are not analyzed: a [longjmp] resumes after the
   [setjmp] call with the registers as they were at the jump, an edge
   the CFG does not show. *)

open Ir

(* ------------------------------------------------------------------ *)
(* Intervals                                                            *)
(* ------------------------------------------------------------------ *)

module Itv = struct
  type t = { lo : int; hi : int }  (** inclusive, [lo <= hi] *)

  let make lo hi = { lo; hi }
  let const c = { lo = c; hi = c }
  let top = { lo = min_int; hi = max_int }
  let leq a b = b.lo <= a.lo && a.hi <= b.hi
  let join a b =
    if leq b a then a else if leq a b then b
    else { lo = min a.lo b.lo; hi = max a.hi b.hi }

  let meet a b =
    let lo = max a.lo b.lo and hi = min a.hi b.hi in
    if lo > hi then None else Some { lo; hi }

  (** Bounds that moved since [old] jump to the native extremes. *)
  let widen old nw =
    {
      lo = (if nw.lo < old.lo then min_int else old.lo);
      hi = (if nw.hi > old.hi then max_int else old.hi);
    }

  (** The values [Ir.norm_int t] can return. *)
  let of_ty = function
    | I8 -> make (-0x80) 0x7f
    | U8 -> make 0 0xff
    | I16 -> make (-0x8000) 0x7fff
    | U16 -> make 0 0xffff
    | I32 -> make (-0x80000000) 0x7fffffff
    | U32 -> make 0 0xffffffff
    | I64 | U64 | P | F32 | F64 -> top

  (** [Ir.norm_int t] lifted: the identity on an interval inside [t]'s
      range, the whole range otherwise (a wrapped value can land
      anywhere in it). *)
  let norm t i =
    let r = of_ty t in
    if leq i r then i else r

  (** Is [Ir.unsigned_view t] the identity on [i], with [i] non-negative?
      Only then do the VM's unsigned division, shift and comparison agree
      with ordinary arithmetic on the interval's bounds. *)
  let plain_unsigned t i =
    i.lo >= 0
    &&
    match t with
    | I8 | U8 -> i.hi <= 0xff
    | I16 | U16 -> i.hi <= 0xffff
    | I32 | U32 -> i.hi <= 0xffffffff
    | _ -> true

  exception Overflow

  let add_x a b =
    let s = a + b in
    if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then raise Overflow
    else s

  let sub_x a b =
    if b = min_int then if a >= 0 then raise Overflow else a - b
    else add_x a (-b)

  let mul_x a b =
    if a = 0 || b = 0 then 0
    else if (a = -1 && b = min_int) || (b = -1 && a = min_int) then
      raise Overflow
    else
      let p = a * b in
      if p / b <> a then raise Overflow else p

  (** Native-word interval arithmetic; [Overflow] if it may wrap. *)
  let add a b = make (add_x a.lo b.lo) (add_x a.hi b.hi)

  let sub a b = make (sub_x a.lo b.hi) (sub_x a.hi b.lo)

  let mul a b =
    let ps = [ mul_x a.lo b.lo; mul_x a.lo b.hi; mul_x a.hi b.lo;
               mul_x a.hi b.hi ] in
    make (List.fold_left min max_int ps) (List.fold_left max min_int ps)

  (** Smallest [2^n - 1 >= x], for [x >= 0]. *)
  let ones_above x =
    let rec go m = if m >= x then m else go ((2 * m) + 1) in
    go 0

  (** The VM's integer ALU ([Vm.exec_bin_int]) lifted to intervals. *)
  let binop (op : binop) (t : ity) (a : t) (b : t) : t =
    let full = of_ty t in
    let signed = ity_signed t in
    (* operands on which the VM's signed or unsigned path is ordinary
       arithmetic *)
    let plain = signed || (plain_unsigned t a && plain_unsigned t b) in
    let const_of i = if i.lo = i.hi then Some i.lo else None in
    let raw =
      try
        match op with
        | Add -> add a b
        | Sub -> sub a b
        | Mul -> mul a b
        | Div -> (
            match const_of b with
            | Some k when k > 0 && plain -> make (a.lo / k) (a.hi / k)
            | Some k when k < -1 && signed -> make (a.hi / k) (a.lo / k)
            | _ -> full)
        | Rem -> (
            match const_of b with
            | Some k when k > 0 && plain ->
                (* the result has the dividend's sign, magnitude < k *)
                if a.lo >= 0 then make 0 (min a.hi (k - 1))
                else if a.hi <= 0 then make (max a.lo (1 - k)) 0
                else make (1 - k) (k - 1)
            | _ -> full)
        | And ->
            (* [x land m] with [m >= 0] lies in [0, m] *)
            if a.lo >= 0 && b.lo >= 0 then make 0 (min a.hi b.hi)
            else if a.lo >= 0 then make 0 a.hi
            else if b.lo >= 0 then make 0 b.hi
            else full
        | Or | Xor ->
            if a.lo >= 0 && b.lo >= 0 then make 0 (ones_above (max a.hi b.hi))
            else full
        | Shl -> (
            match const_of b with
            | Some c when c land 63 <= 61 -> mul a (const (1 lsl (c land 63)))
            | _ -> full)
        | Shr -> (
            match const_of b with
            | Some c when plain ->
                make (a.lo asr (c land 63)) (a.hi asr (c land 63))
            | _ -> full)
      with Overflow -> full
    in
    norm t raw
end

(* ------------------------------------------------------------------ *)
(* Abstract values                                                      *)
(* ------------------------------------------------------------------ *)

type root = Global of string | Slot of int

(** A pointer whose metadata is a static extent. *)
type ptr = {
  root : root;
  off : Itv.t;  (** byte offset of the address from the root *)
  win : (Itv.t * int) option;
      (** under a shrunk field window: the address's offset from the
          window start, and the window size *)
}

type value = Int of Itv.t | Ptr of ptr

let unknown = Int Itv.top
let int_of = function Int i -> i | Ptr _ -> Itv.top

let lift2 f v w =
  match (v, w) with
  | Int a, Int b -> Int (f a b)
  | Ptr p, Ptr q
    when p.root = q.root
         && Option.map snd p.win = Option.map snd q.win ->
      Ptr
        {
          p with
          off = f p.off q.off;
          win =
            (match (p.win, q.win) with
            | Some (a, s), Some (b, _) -> Some (f a b, s)
            | _ -> None);
        }
  | _ -> unknown

let join v w = if v == w then v else lift2 Itv.join v w
let widen = lift2 Itv.widen

(* ------------------------------------------------------------------ *)
(* Transfer                                                             *)
(* ------------------------------------------------------------------ *)

type env = {
  extent : string -> int option;  (** global size, if the global is known *)
  shrink : bool;  (** [Gep] shrink markers narrow bounds *)
  index : int array;
      (** register -> its slot in a state array, or -1 for a register
          that cannot reach an address (always unknown) *)
}

let get env (st : value array) r =
  let i = env.index.(r) in
  if i < 0 then unknown else st.(i)

let set env (st : value array) r v =
  let i = env.index.(r) in
  if i >= 0 then st.(i) <- v

let eval env (st : value array) (o : operand) : value =
  match o with
  | Reg r -> get env st r
  | ImmI c -> Int (Itv.const c)
  | Glob g when env.extent g <> None ->
      Ptr { root = Global g; off = Itv.const 0; win = None }
  | Glob _ | GlobEnd _ | Func _ | ImmF _ -> unknown

let gep env st base off shrink : value =
  match eval env st base with
  | Int _ -> unknown
  | Ptr p -> (
      let d = int_of (eval env st off) in
      try
        let off = Itv.add p.off d in
        match shrink with
        | Some size when env.shrink ->
            Ptr { p with off; win = Some (Itv.const 0, size) }
        | _ ->
            Ptr
              {
                p with
                off;
                win = Option.map (fun (w, s) -> (Itv.add w d, s)) p.win;
              }
      with Itv.Overflow -> unknown)

(** Update [st] in place across one instruction. *)
let transfer env (st : value array) (inst : inst) : unit =
  let set = set env st in
  match inst with
  | Mov (r, ty, o) ->
      (* metadata follows pointer-typed moves only *)
      set r (match eval env st o with Ptr _ when ty <> P -> unknown | v -> v)
  | Bin (r, op, ty, a, b) ->
      set r
        (if ity_is_float ty then unknown
         else
           Int
             (Itv.binop op ty (int_of (eval env st a))
                (int_of (eval env st b))))
  | Cmp (r, _, _, _, _) -> set r (Int (Itv.make 0 1))
  | Cast (r, to_, from_, o) ->
      set r
        (if ity_is_float to_ then unknown
         else if ity_is_float from_ then Int (Itv.of_ty to_)
         else Int (Itv.norm to_ (int_of (eval env st o))))
  | Gep (r, base, off, shrink) -> set r (gep env st base off shrink)
  | Slotaddr (r, s) ->
      set r (Ptr { root = Slot s; off = Itv.const 0; win = None })
  | i -> List.iter (fun r -> set r unknown) (defs_of i)

(* ------------------------------------------------------------------ *)
(* Branch refinement                                                    *)
(* ------------------------------------------------------------------ *)

(** What a block's instructions say about a condition register [c] at
    the block's end: [c <> 0] exactly when [g_a g_cmp g_b] holds, with
    both operands still holding the compared values.  [g_alias] lists,
    per compared register, the registers that are copies of it there;
    [g_rems] the operands defined by [Rem] from an unchanged [x]. *)
type guard = {
  g_cmp : cmpop;
  g_ty : ity;
  g_a : operand;
  g_b : operand;
  g_alias : (reg * reg list) list;
  g_rems : (reg * (reg * ity * int)) list;  (** [t = x % k]: (t, (x, ty, k)) *)
}

let guard_of (blk : block) (c : reg) : guard option =
  let insts = Array.of_list blk.insts in
  let n = Array.length insts in
  (* index of the last definition of [r], or -1 *)
  let last_def r =
    let rec go i =
      if i < 0 then -1 else if List.mem r (defs_of insts.(i)) then i
      else go (i - 1)
    in
    go (n - 1)
  in
  (* [o] holds, at the block's end, the value it had at index [i] *)
  let stable_since i = function Reg r -> last_def r < i | _ -> true in
  let def r =
    let i = last_def r in
    if i < 0 then None else Some (i, insts.(i))
  in
  (* [c = cmp.ne t, 0] and [c = cmp.eq t, 0] test the comparison [t] *)
  let rec cmp_of c negated =
    match def c with
    | Some (ci, Cmp (_, (Cne | Ceq as op), ty, (Reg t as tv), ImmI 0))
      when stable_since ci tv -> (
        match def t with
        | Some (_, Cmp _) -> cmp_of t (negated <> (op = Ceq))
        | _ -> Some (ci, op, ty, tv, ImmI 0, negated))
    | Some (ci, Cmp (_, cmp, ty, a, b))
      when stable_since ci a && stable_since ci b ->
        Some (ci, cmp, ty, a, b, negated)
    | _ -> None
  in
  match cmp_of c false with
  | None -> None
  | Some (_, cmp, ty, a, b, negated) ->
      (* registers equal to [r] at the end: in-block copies either way *)
      let aliases r =
        let copies = ref [] in
        Array.iteri
          (fun i inst ->
            match inst with
            | Mov (y, _, Reg x)
              when x = r && y <> r && last_def y = i && stable_since i (Reg r)
              ->
                copies := y :: !copies
            | Mov (y, _, (Reg x as xo))
              when y = r && x <> r && last_def r = i && stable_since i xo ->
                copies := x :: !copies
            | _ -> ())
          insts;
        !copies
      in
      let rem_fact = function
        | Reg t -> (
            match def t with
            | Some (ti, Bin (_, Rem, rty, (Reg x as xo), ImmI k))
              when stable_since ti xo ->
                Some (t, (x, rty, k))
            | _ -> None)
        | _ -> None
      in
      let regs = List.filter_map (function Reg r -> Some r | _ -> None) in
      Some
        {
          g_cmp = (if negated then negate_cmp cmp else cmp);
          g_ty = ty;
          g_a = a;
          g_b = b;
          g_alias = List.map (fun r -> (r, aliases r)) (regs [ a; b ]);
          g_rems = List.filter_map rem_fact [ a; b ];
        }

exception Infeasible

let meet_x a b = match Itv.meet a b with Some i -> i | None -> raise Infeasible

(** [i] without the value [c]: only an endpoint can go. *)
let trim (i : Itv.t) c =
  if i.lo = c && i.hi = c then raise Infeasible
  else if i.lo = c then Itv.make (c + 1) i.hi
  else if i.hi = c then Itv.make i.lo (c - 1)
  else i

(** Narrow register [r] (and its copies) to [i]. *)
let narrow env (st : value array) (g : guard) r (i : Itv.t) =
  let one r =
    match get env st r with
    | Int old -> set env st r (Int (meet_x old i))
    | Ptr _ -> ()
  in
  one r;
  List.iter one (Option.value ~default:[] (List.assoc_opt r g.g_alias))

(** Refine [st] in place for the edge on which [a cmp b] holds. *)
let refine env (st : value array) (g : guard) (cmp : cmpop) : unit =
  match (eval env st g.g_a, eval env st g.g_b) with
  | Int ia, Int ib
    when (not (ity_is_float g.g_ty))
         && (ity_signed g.g_ty
            || (Itv.plain_unsigned g.g_ty ia && Itv.plain_unsigned g.g_ty ib))
    ->
      (* [a < b] (strict) or [a <= b] *)
      let below ~strict (a : Itv.t) (b : Itv.t) =
        let d = if strict then 1 else 0 in
        if (strict && b.hi = min_int) || (strict && a.lo = max_int) then
          raise Infeasible;
        ( meet_x a (Itv.make min_int (b.hi - d)),
          meet_x b (Itv.make (a.lo + d) max_int) )
      in
      let ia', ib' =
        match cmp with
        | Clt -> below ~strict:true ia ib
        | Cle -> below ~strict:false ia ib
        | Cgt ->
            let b', a' = below ~strict:true ib ia in
            (a', b')
        | Cge ->
            let b', a' = below ~strict:false ib ia in
            (a', b')
        | Ceq ->
            let m = meet_x ia ib in
            (m, m)
        | Cne ->
            ( (if ib.lo = ib.hi then trim ia ib.lo else ia),
              if ia.lo = ia.hi then trim ib ia.lo else ib )
      in
      let set o i = match o with Reg r -> narrow env st g r i | _ -> () in
      set g.g_a ia';
      set g.g_b ib';
      (* [x % k <> c] with [0 <= x]: an endpoint of [x] with residue
         [c] cannot be taken *)
      if cmp = Cne then
        List.iter
          (fun (t, (x, rty, k)) ->
            let other = if g.g_a = Reg t then ib else ia in
            match get env st x with
            | Int ix
              when k > 0 && other.lo = other.hi
                   && Itv.plain_unsigned rty ix
                   && Itv.plain_unsigned rty (Itv.const k)
                   && k - 1 <= (Itv.of_ty rty).hi ->
                let c = other.lo in
                let lo = if ix.lo mod k = c then ix.lo + 1 else ix.lo in
                let hi = if ix.hi mod k = c then ix.hi - 1 else ix.hi in
                if lo > hi then raise Infeasible;
                narrow env st g x (Itv.make lo hi)
            | _ -> ())
          g.g_rems
  | _ -> ()

(** Refine [st] (the state at the end of a block whose instructions say
    [guard] about [c]) in place for the edge on which the condition
    register [c] is non-zero ([taken]) or zero. *)
let refine_cond env (st : value array) guard c ~taken : unit =
  (match get env st c with
  | Int i ->
      set env st c (Int (if taken then trim i 0 else meet_x i (Itv.const 0)))
  | Ptr _ -> ());
  match guard with
  | Some g -> refine env st g (if taken then g.g_cmp else negate_cmp g.g_cmp)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                             *)
(* ------------------------------------------------------------------ *)

(** The registers worth tracking: those that can flow, through the
    definitions of any register on the way, into the address of a load
    or store a [Gep] from a global or slot address may define, whatever
    such a register is compared with (a guard's bound), and the branch
    conditions (a constant one rules an incoming edge out).  Empty
    when there is no such access, or when a call can be [setjmp]. *)
let slice (f : func) : bool array =
  let n = max 1 f.fnregs in
  let slot = Array.make n false and rooted = Array.make n false in
  let each f' = Array.iter (fun b -> List.iter f' b.insts) f.fblocks in
  each (function Slotaddr (r, _) -> slot.(r) <- true | _ -> ());
  let from = function
    | Glob _ -> true
    | Reg r -> rooted.(r) || slot.(r)
    | _ -> false
  in
  let tracked = Array.make n false in
  if
    may_call_setjmp f
    || not
         (Array.exists
            (fun b ->
              List.exists
                (function
                  | Gep (_, base, _, _) | Mov (_, P, base) -> from base
                  | _ -> false)
                b.insts)
            f.fblocks)
  then tracked
  else
  let defs = Array.make n [] in
  each (fun inst ->
      List.iter (fun r -> defs.(r) <- inst :: defs.(r)) (defs_of inst));
  let changed = ref true in
  while !changed do
    changed := false;
    each (function
      | (Gep (r, base, _, _) | Mov (r, P, base))
        when from base && not rooted.(r) ->
          rooted.(r) <- true;
          changed := true
      | _ -> ())
  done;
  let rec track = function
    | Reg r when not tracked.(r) ->
        tracked.(r) <- true;
        List.iter
          (fun inst ->
            match inst with
            | Mov (_, _, o) | Cast (_, _, _, o) -> track o
            | Bin (_, _, _, a, b) | Gep (_, a, b, _) ->
                track a;
                track b
            | _ -> ())
          defs.(r)
    | _ -> ()
  in
  each (function
      | Load (_, _, (Reg r as a)) | Store (_, (Reg r as a), _) when rooted.(r)
        ->
          track a
      | _ -> ());
  if Array.exists Fun.id tracked then begin
    Array.iter
      (fun b -> match b.term with TBr (c, _, _) -> track c | _ -> ())
      f.fblocks;
    let grown = ref true in
    while !grown do
      grown := false;
      each (function
        | Cmp (_, _, _, a, b) ->
            let partner x y =
              match (x, y) with
              | Reg rx, Reg ry when tracked.(rx) && not tracked.(ry) ->
                  track y;
                  grown := true
              | _ -> ()
            in
            partner a b;
            partner b a
        | _ -> ())
    done
  end;
  tracked

(** Header revisits before widening kicks in. *)
let widen_delay = 2

(** Registers whose value cannot change while loop [l] runs: not
    defined in it, or defined once in it by register arithmetic on such
    registers (a least fixpoint, so an induction cycle never qualifies). *)
let invariant_regs (f : func) nregs (l : Dom.loop) : bool array =
  let count = Array.make nregs 0 and defs = ref [] in
  Array.iteri
    (fun b blk ->
      if l.Dom.body.(b) then
        List.iter
          (fun i ->
            List.iter (fun r -> count.(r) <- count.(r) + 1) (defs_of i);
            defs := i :: !defs)
          blk.insts)
    f.fblocks;
  let inv = Array.map (fun c -> c = 0) count in
  let reads = function Reg r -> inv.(r) | _ -> true in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun i ->
        let pure =
          match i with
          | Mov (_, _, o) | Cast (_, _, _, o) -> reads o
          | Bin (_, _, _, a, b) | Cmp (_, _, _, a, b) | Gep (_, a, b, _) ->
              reads a && reads b
          | Slotaddr _ -> true
          | _ -> false
        in
        match defs_of i with
        | [ r ] when pure && count.(r) = 1 && not inv.(r) ->
            inv.(r) <- true;
            changed := true
        | _ -> ())
      !defs
  done;
  inv

(** What the analysis concludes about one instruction. *)
type verdict =
  | Unproven  (** not an access, or not provably in bounds *)
  | Proven of { in_loop : bool }
      (** an access in bounds on every execution; [in_loop] when its
          block belongs to a natural loop *)

(** [proven ~extent ~shrink f b i] is [Proven] when instruction [i] of
    block [b] of [f] is a load or store whose byte range [[p, p + size)]
    lies, on every execution, inside the static extent [p]'s metadata
    will carry: the whole global ([extent g] bytes) or slot, and the
    shrunk field window when there is one.

    An access whose address cannot change while its innermost loop runs
    stays [Unproven]: [Elim] hoists its check to the loop's preheader
    together with the address computation the check reads, so one check
    per loop entry is all a discharge could save, and it would leave that
    computation in the loop. *)
let proven ~(extent : string -> int option) ~(shrink : bool) (f : func) :
    int -> int -> verdict =
  let no _ _ = Unproven in
  let tracked = slice f in
  if not (Array.exists Fun.id tracked) then no
  else
    let width = ref 0 in
    let index =
      Array.map
        (fun t ->
          if t then begin
            incr width;
            !width - 1
          end
          else -1)
        tracked
    in
    let width = !width in
    let env = { extent; shrink; index } in
    let nregs = max 1 f.fnregs in
    let dom = Dom.compute f in
    let n = Array.length f.fblocks in
    (* Widening points: targets of retreating edges.  A natural-loop
       header widens only the registers its loop defines — the others
       flow in unchanged and settle with the enclosing loop — any other
       target (an irreducible entry) widens all of them. *)
    let loops = Dom.natural_loops dom in
    let widened =
      Array.init n (fun b ->
          if
            not
              (List.exists
                 (fun p -> dom.Dom.rpo_pos.(p) >= dom.Dom.rpo_pos.(b))
                 dom.Dom.preds.(b))
          then None
          else
            match List.filter (fun l -> l.Dom.header = b) loops with
            | [] -> Some (Array.make width true)
            | ls ->
                let defd = Array.make width false in
                List.iter
                  (fun l ->
                    Array.iteri
                      (fun bb blk ->
                        if l.Dom.body.(bb) then
                          List.iter
                            (fun i ->
                              List.iter
                                (fun r ->
                                  if index.(r) >= 0 then
                                    defd.(index.(r)) <- true)
                                (defs_of i))
                            blk.insts)
                      f.fblocks)
                  ls;
                Some defd)
    in
    (* Only registers some block reads before writing carry information
       across a block boundary: the others stay unknown in every
       in-state and are never joined or compared. *)
    let live =
      let exposed = Array.make width false in
      Array.iter
        (fun blk ->
          let written = Hashtbl.create 8 in
          let use o =
            (match o with
            | Reg r when index.(r) >= 0 && not (Hashtbl.mem written r) ->
                exposed.(index.(r)) <- true
            | _ -> ());
            o
          in
          List.iter
            (fun i ->
              ignore (map_inst_operands use i);
              List.iter (fun r -> Hashtbl.replace written r ()) (defs_of i))
            blk.insts;
          ignore (map_term_operands use blk.term))
        f.fblocks;
      List.filter (fun i -> exposed.(i)) (List.init width Fun.id)
      |> Array.of_list
    in
    let ins : value array option array = Array.make n None in
    let outs : value array option array = Array.make n None in
    let visits = Array.make n 0 in
    (* what block [q]'s instructions say about condition [c], memoized *)
    let guards = Hashtbl.create 16 in
    let guard q c =
      match Hashtbl.find_opt guards (q, c) with
      | Some g -> g
      | None ->
          let g = guard_of f.fblocks.(q) c in
          Hashtbl.replace guards (q, c) g;
          g
    in
    (* the state on edge [p -> b], [None] if infeasible *)
    let rec edge ?(split = true) p b : value array option =
      match outs.(p) with
      | None -> None
      | Some out -> (
          match f.fblocks.(p).term with
          | TBr (Reg c, t1, t2) when t1 <> t2 -> (
              let taken = b = t1 in
              let refined q st =
                try
                  refine_cond env st (guard q c) c ~taken;
                  Some st
                with Infeasible -> None
              in
              let preds = dom.Dom.preds.(p) in
              if
                f.fblocks.(p).insts <> [] || p = 0 || (not split)
                || List.mem p preds
              then refined p (Array.copy out)
              else
                (* a bare branch on a condition its predecessors compute
                   ([a && b] joins into one register): refine per
                   incoming edge, then join *)
                match
                  List.filter_map
                    (fun q ->
                      Option.bind (edge ~split:false q p) (fun st ->
                          refined q (Array.copy st)))
                    preds
                with
                | [] -> None
                | s :: rest ->
                    List.iter
                      (fun s' -> Array.iteri (fun r v -> s.(r) <- join v s'.(r)) s)
                      rest;
                    Some s)
          | _ -> Some out)
    in
    (* Passes over the reverse postorder revisit only blocks with a
       changed incoming edge: a predecessor's out-state, or — across a
       bare branch block, whose edges are refined per incoming edge — a
       predecessor's predecessor's. *)
    let dirty = Array.make n false in
    dirty.(0) <- true;
    let mark_succs b =
      List.iter
        (fun s ->
          dirty.(s) <- true;
          if f.fblocks.(s).insts = [] then
            List.iter (fun s' -> dirty.(s') <- true) dom.Dom.succs.(s))
        dom.Dom.succs.(b)
    in
    let changed = ref true in
    let passes = ref 0 in
    (* a generous bound: widening makes three passes per loop-nest level
       typical; on exhaustion nothing is proven *)
    let budget = 8 + (4 * n) in
    while !changed && !passes < budget do
      changed := false;
      incr passes;
      Array.iter
        (fun b ->
          if dirty.(b) then begin
          dirty.(b) <- false;
          let incoming =
            List.filter_map
              (fun p ->
                match outs.(p) with
                | Some _ when Dom.reachable dom p -> edge p b
                | _ -> None)
              dom.Dom.preds.(b)
          in
          let incoming =
            if b = 0 then Array.make width unknown :: incoming else incoming
          in
          match incoming with
          | [] -> ()
          | s :: rest ->
              let nw = Array.make width unknown in
              Array.iter (fun r -> nw.(r) <- s.(r)) live;
              List.iter
                (fun s' -> Array.iter (fun r -> nw.(r) <- join nw.(r) s'.(r)) live)
                rest;
              let moved =
                match ins.(b) with
                | None -> true
                | Some old ->
                    let widening =
                      if visits.(b) >= widen_delay then widened.(b) else None
                    in
                    let moved = ref false in
                    Array.iter
                      (fun r ->
                        let j = join old.(r) nw.(r) in
                        let v =
                          match widening with
                          | Some defd when defd.(r) -> widen old.(r) j
                          | _ -> j
                        in
                        if not (v == old.(r) || v = old.(r)) then moved := true;
                        nw.(r) <- v)
                      live;
                    !moved
              in
              if moved then begin
                let merged = nw in
                ins.(b) <- Some merged;
                visits.(b) <- visits.(b) + 1;
                let st = Array.copy merged in
                List.iter (transfer env st) f.fblocks.(b).insts;
                outs.(b) <- Some st;
                mark_succs b;
                changed := true
              end
          end)
        dom.Dom.rpo
    done;
    if !changed then no
    else
      let inside (i : Itv.t) size w = i.lo >= 0 && i.hi <= size - w in
      let in_extent (v : value) w =
        match v with
        | Int _ -> false
        | Ptr { root; off; win } -> (
            let size =
              match root with
              | Global g -> Option.value ~default:0 (extent g)
              | Slot s -> f.fslots.(s).sl_size
            in
            inside off size w
            &&
            match win with None -> true | Some (o, ws) -> inside o ws w)
      in
      (* the innermost natural loop of each block, and the registers
         invariant in it *)
      let sized = List.map (fun l -> (Dom.loop_size l, l)) loops in
      let innermost =
        Array.init n (fun b ->
            List.fold_left
              (fun best (size, l) ->
                if not l.Dom.body.(b) then best
                else
                  match best with
                  | Some (size', _) when size' <= size -> best
                  | _ -> Some (size, l))
              None sized
            |> Option.map snd)
      in
      let invariant = Hashtbl.create 4 in
      let invariant_in l = function
        | Reg r ->
            let inv =
              match Hashtbl.find_opt invariant l.Dom.header with
              | Some inv -> inv
              | None ->
                  let inv = invariant_regs f nregs l in
                  Hashtbl.replace invariant l.Dom.header inv;
                  inv
            in
            inv.(r)
        | _ -> true
      in
      let verdict b st inst =
        match inst with
        | Load (_, t, a) | Store (t, a, _)
          when in_extent (eval env st a) (ity_size t) -> (
            match innermost.(b) with
            | None -> Proven { in_loop = false }
            | Some l when invariant_in l a -> Unproven
            | Some _ -> Proven { in_loop = true })
        | _ -> Unproven
      in
      let table =
        Array.mapi
          (fun b blk ->
            match ins.(b) with
            | None -> [||]
            | Some s ->
                let st = Array.copy s in
                Array.of_list
                  (List.map
                     (fun inst ->
                       let v = verdict b st inst in
                       transfer env st inst;
                       v)
                     blk.insts))
          f.fblocks
      in
      fun b i -> if i < Array.length table.(b) then table.(b).(i) else Unproven
