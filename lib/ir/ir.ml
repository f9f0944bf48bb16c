(* The intermediate representation.

   Modelled on the LLVM IR the SoftBound prototype instruments: a typed,
   load/store register machine with explicit address arithmetic ([Gep]) so
   that pointer provenance is visible to the transformation, an unbounded
   supply of virtual registers (so register-promoted scalars never touch
   simulated memory), and multi-value returns (so the paper's
   "three-element structure by value" for pointer-returning functions is
   direct).

   The SoftBound pass is IR-to-IR: it inserts [Check], [MetaLoad] and
   [MetaStore] instructions and rewrites calls; the uninstrumented program
   contains none of those, so the overhead measured by the interpreter is
   exactly the executed extra instructions plus their cache traffic. *)

(** Low-level value types.  Signedness is carried in the type, as the
    interpreter needs it for division, shifts, comparisons and widening. *)
type ity = I8 | U8 | I16 | U16 | I32 | U32 | I64 | U64 | F32 | F64 | P
[@@deriving show { with_path = false }, eq]

let ity_size = function
  | I8 | U8 -> 1
  | I16 | U16 -> 2
  | I32 | U32 -> 4
  | I64 | U64 -> 8
  | F32 -> 4
  | F64 -> 8
  | P -> 8

let ity_signed = function
  | I8 | I16 | I32 | I64 -> true
  | _ -> false

let ity_is_float = function F32 | F64 -> true | _ -> false

(** Normalize an OCaml int to the value range of an integer [ity]
    (two's-complement wrap-around).  8-byte types are represented with
    OCaml's 63-bit native int: simulated addresses and benchmark values
    stay far below 2^62, and the formal-semantics library covers the
    boundary cases abstractly. *)
let norm_int (t : ity) (v : int) : int =
  match t with
  | I8 -> (v land 0xff) - (if v land 0x80 <> 0 then 0x100 else 0)
  | U8 -> v land 0xff
  | I16 -> (v land 0xffff) - (if v land 0x8000 <> 0 then 0x10000 else 0)
  | U16 -> v land 0xffff
  | I32 ->
      (v land 0xffffffff) - (if v land 0x80000000 <> 0 then 0x100000000 else 0)
  | U32 -> v land 0xffffffff
  | I64 | U64 | P -> v
  | F32 | F64 -> invalid_arg "norm_int: float type"

(** Unsigned view of a normalized value, for unsigned compare/div/shr.
    For 8-byte types this is the identity (63-bit approximation). *)
let unsigned_view (t : ity) (v : int) : int =
  match t with
  | I8 | U8 -> v land 0xff
  | I16 | U16 -> v land 0xffff
  | I32 | U32 -> v land 0xffffffff
  | _ -> v

type reg = int [@@deriving show, eq]

type operand =
  | Reg of reg
  | ImmI of int  (** integer or pointer immediate *)
  | ImmF of float
  | Glob of string  (** runtime address of a global *)
  | GlobEnd of string  (** one-past-the-end address of a global *)
  | Func of string  (** code address of a function *)
[@@deriving show { with_path = false }, eq]

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
[@@deriving show { with_path = false }, eq]

type cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge
[@@deriving show { with_path = false }, eq]

(** Can [Bin (_, op, ty, _, divisor)] trap?  Integer division and
    remainder fault on a zero divisor (a non-zero immediate cannot be
    one); float division yields an infinity or NaN and never traps, while
    every float operation other than [Add]/[Sub]/[Mul]/[Div] is rejected
    by the VM ("float bitwise operation"). *)
let bin_may_trap (op : binop) (ty : ity) (divisor : operand) : bool =
  if ity_is_float ty then
    match op with Add | Sub | Mul | Div -> false | _ -> true
  else
    match (op, divisor) with
    | (Div | Rem), ImmI c -> c = 0
    | (Div | Rem), _ -> true
    | _ -> false

(** Call signature as seen at the call site. *)
type csig = {
  cargs : ity list;
  crets : ity list;
  cvariadic : bool;
}
[@@deriving show { with_path = false }, eq]

type inst =
  | Mov of reg * ity * operand
  | Bin of reg * binop * ity * operand * operand
  | Cmp of reg * cmpop * ity * operand * operand  (** result: I32 0/1 *)
  | Cast of reg * ity * ity * operand  (** dst ty, src ty *)
  | Load of reg * ity * operand  (** [Load (dst, ty, addr)] *)
  | Store of ity * operand * operand  (** [Store (ty, addr, value)] *)
  | Gep of reg * operand * operand * int option
      (** [Gep (dst, base, byte_off, shrink)]: pointer arithmetic.  The
          result inherits the metadata of [base] — unless [shrink] is
          [Some size], which marks creation of a pointer to a sub-object
          of [size] bytes (struct field selection); SoftBound then narrows
          the bounds to the field (paper section 3.1). *)
  | Slotaddr of reg * int  (** address of a frame slot *)
  | Call of {
      rets : reg list;
      callee : operand;
      sg : csig;
      hints : string list;
          (** call-site facts recorded by lowering for later passes; e.g.
              ["memcpy-noptr"] marks a memcpy whose operands' static types
              contain no pointers, enabling the paper's metadata-copy
              heuristic (section 5.2, "Memcpy") *)
      args : operand list;
          (** Calls to variadic functions follow the convention
              [fixed args..; va_ptr; va_count]: the caller spills promoted
              varargs (8 bytes each) into a frame slot with ordinary
              [Store] instructions — so pointer varargs get their metadata
              propagated by the ordinary table-update instrumentation —
              and passes that slot's address plus the slot count.  This
              realizes the paper's extra vararg parameters (section 5.2). *)
    }
  | SetBoundMark of operand * operand
      (** [(addr_of_pointer, size)] — no-op until the SoftBound pass
          rewrites it into a metadata update *)
  (* --- instructions inserted by the SoftBound transformation ---

     Each carries a trailing *site id*: a stable, per-module identifier
     assigned in emission order by the transformation, before any
     elimination runs.  Site ids key the observability layer's per-site
     counters and survive hoisting/CSE unchanged; id 0 is reserved for
     runtime-originated operations (wrapper internals, allocator
     bookkeeping). *)
  | Check of operand * operand * operand * int * int
      (** [Check (ptr, base, bound, access_size, site)]: abort unless
          [base <= ptr && ptr + size <= bound] *)
  | CheckFptr of operand * operand * operand * int option * int
      (** function-pointer call check: require [base = bound = ptr]
          (paper section 5.2, "Function pointers").  The optional hash is
          the paper's *future-work* extension: "encode the
          pointer/non-pointer signature of the function's arguments,
          allowing a dynamic check" — when present, the callee's
          signature kinds must hash to the same value. *)
  | MetaLoad of reg * reg * operand * int
      (** [(base_dst, bound_dst, addr, site)]: disjoint-metadata-space
          lookup for the pointer stored at [addr] *)
  | MetaStore of operand * operand * operand * int
      (** [(addr, base, bound, site)]: metadata-space update *)
  | CheckSpan of span_check
      (** Widened bounds check produced by the Elim pass (never by the
          transformation itself): one check covering a whole arithmetic
          progression of addresses.  Passes iff [sp_count <= 0] or every
          address [sp_first + k * sp_stride] for [k] in [0, sp_count)
          satisfies [sp_base <= a && a + sp_width <= sp_bound].  On
          failure it traps with the first failing element (in [k] order)
          so the report is identical to the unwidened per-iteration
          check's. *)
[@@deriving show { with_path = false }, eq]

and span_check = {
  sp_first : operand;  (** address of element 0 *)
  sp_count : operand;  (** number of elements; <= 0 is a vacuous pass *)
  sp_stride : int;  (** byte step between elements (may be negative) *)
  sp_width : int;  (** access size of each element *)
  sp_base : operand;
  sp_bound : operand;
  sp_site : int;
      (** site of the original [Check] (loop widening) or of the first
          coalesced check *)
  sp_sites : int array;
      (** non-empty only for in-block coalesced checks: the original
          site of element [k] is [sp_sites.(k)], so trap attribution
          still names the per-access site *)
}
[@@deriving show { with_path = false }, eq]

type terminator =
  | TRet of operand list
  | TJmp of int
  | TBr of operand * int * int  (** non-zero -> first target *)
  | TSwitch of operand * (int * int) list * int
      (** (value, target) cases, default *)
  | TUnreachable
[@@deriving show { with_path = false }, eq]

type block = { insts : inst list; term : terminator }
[@@deriving show { with_path = false }]

(** A stack-frame slot (a local that must live in simulated memory:
    address-taken scalars, arrays, structs, call-site vararg save areas). *)
type slot = {
  sl_name : string;
  sl_offset : int;  (** byte offset from the frame's slot area base *)
  sl_size : int;
  sl_ptr_offsets : int list;
      (** offsets (within the slot) that hold pointer values — consumed by
          the transformation's free-time metadata clearing (section 5.2) *)
}
[@@deriving show { with_path = false }]

type func = {
  fname : string;
  fparams : (reg * ity) list;
  frets : ity list;
  fvariadic : bool;
  fva_regs : (reg * reg) option;
      (** (va_ptr, va_count) hidden parameter registers of a variadic
          function *)
  fslots : slot array;
  fframe_size : int;
  fblocks : block array;
  fnregs : int;
}

(** Scalar initializer element of a global, at a byte offset. *)
type gval =
  | GInt of int * int  (** value, byte width *)
  | GF32 of float
  | GF64 of float
  | GAddr of string * int  (** address of global + byte offset *)
  | GFuncAddr of string
[@@deriving show { with_path = false }, eq]

type global = {
  gname : string;
  gsize : int;
  galign : int;
  ginit : (int * gval) list;
  gptr_offsets : int list;
      (** byte offsets holding pointers: transformed code installs their
          metadata in [__sb_global_init] (paper section 5.2) *)
}

type modul = {
  mfuncs : (string, func) Hashtbl.t;
  mglobals : global list;
  mfunc_order : string list;  (** definition order, for stable addresses *)
  mexterns : (string * csig) list;
}

let find_func m name = Hashtbl.find_opt m.mfuncs name

let iter_funcs m f =
  List.iter (fun n -> f (Hashtbl.find m.mfuncs n)) m.mfunc_order

(** Map every function of a module (used by transformations). *)
let map_funcs m f =
  let mfuncs = Hashtbl.create (Hashtbl.length m.mfuncs) in
  let mfunc_order =
    List.map
      (fun n ->
        let fn = f (Hashtbl.find m.mfuncs n) in
        Hashtbl.replace mfuncs fn.fname fn;
        fn.fname)
      m.mfunc_order
  in
  { m with mfuncs; mfunc_order }

(** Kind-class hash of a call signature, for the dynamic function-pointer
    signature check: pointers, floats and integers are distinguished (the
    property the paper cares about is pointer vs non-pointer, so that a
    mismatched call cannot manufacture improper base/bound values). *)
let sig_hash (sg : csig) : int =
  let kind = function P -> 2 | F32 | F64 -> 1 | _ -> 0 in
  let fold acc l = List.fold_left (fun a t -> (a * 31) + kind t + 1) acc l in
  fold (fold (if sg.cvariadic then 7 else 3) sg.cargs) sg.crets

(** Map every operand of an instruction. *)
let map_inst_operands (f : operand -> operand) (inst : inst) : inst =
  match inst with
  | Mov (r, t, o) -> Mov (r, t, f o)
  | Bin (r, op, t, a, b) -> Bin (r, op, t, f a, f b)
  | Cmp (r, op, t, a, b) -> Cmp (r, op, t, f a, f b)
  | Cast (r, to_, from_, o) -> Cast (r, to_, from_, f o)
  | Load (r, t, a) -> Load (r, t, f a)
  | Store (t, a, v) -> Store (t, f a, f v)
  | Gep (r, b, o, s) -> Gep (r, f b, f o, s)
  | Slotaddr _ -> inst
  | Call c -> Call { c with callee = f c.callee; args = List.map f c.args }
  | SetBoundMark (a, n) -> SetBoundMark (f a, f n)
  | Check (p, b, e, s, site) -> Check (f p, f b, f e, s, site)
  | CheckFptr (p, b, e, h, site) -> CheckFptr (f p, f b, f e, h, site)
  | MetaLoad (r1, r2, a, site) -> MetaLoad (r1, r2, f a, site)
  | MetaStore (a, b, e, site) -> MetaStore (f a, f b, f e, site)
  | CheckSpan sp ->
      CheckSpan
        {
          sp with
          sp_first = f sp.sp_first;
          sp_count = f sp.sp_count;
          sp_base = f sp.sp_base;
          sp_bound = f sp.sp_bound;
        }

(** Apply [k] to every operand of an instruction, in order. *)
let iter_inst_operands (k : operand -> unit) (i : inst) : unit =
  match i with
  | Mov (_, _, o) | Cast (_, _, _, o) | Load (_, _, o)
  | MetaLoad (_, _, o, _) ->
      k o
  | Bin (_, _, _, a, b)
  | Cmp (_, _, _, a, b)
  | Store (_, a, b)
  | Gep (_, a, b, _)
  | SetBoundMark (a, b) ->
      k a;
      k b
  | Slotaddr _ -> ()
  | Call { callee; args; _ } ->
      k callee;
      List.iter k args
  | Check (p, b, e, _, _) | CheckFptr (p, b, e, _, _)
  | MetaStore (p, b, e, _) ->
      k p;
      k b;
      k e
  | CheckSpan { sp_first; sp_count; sp_base; sp_bound; _ } ->
      k sp_first;
      k sp_count;
      k sp_base;
      k sp_bound

let map_term_operands (f : operand -> operand) (t : terminator) : terminator =
  match t with
  | TRet ops -> TRet (List.map f ops)
  | TBr (c, a, b) -> TBr (f c, a, b)
  | TSwitch (v, cases, d) -> TSwitch (f v, cases, d)
  | (TJmp _ | TUnreachable) as t -> t

(** Registers an instruction writes. *)
let defs_of (i : inst) : reg list =
  match i with
  | Mov (r, _, _) | Bin (r, _, _, _, _) | Cmp (r, _, _, _, _)
  | Cast (r, _, _, _) | Load (r, _, _) | Gep (r, _, _, _) | Slotaddr (r, _) ->
      [ r ]
  | Call { rets; _ } -> rets
  | MetaLoad (r1, r2, _, _) -> [ r1; r2 ]
  | Store _ | SetBoundMark _ | Check _ | CheckFptr _ | MetaStore _
  | CheckSpan _ ->
      []

(** Call hint on an indirect call that cannot reach [setjmp]: the
    transformation sets it on every indirect call of a module that never
    takes [setjmp]'s address. *)
let no_setjmp_hint = "no-setjmp"

(** Can a call of [f] be [setjmp] (named so, or [_sb_setjmp] once
    instrumented)?  An indirect call may be, unless it carries
    {!no_setjmp_hint}.  [longjmp] resumes after that call with the
    registers as they were at the jump, an edge the CFG does not show,
    so dataflow over [fblocks] must skip [f]. *)
let may_call_setjmp (f : func) : bool =
  Array.exists
    (fun b ->
      List.exists
        (function
          | Call { callee = Func g; _ } -> g = "setjmp" || g = "_sb_setjmp"
          | Call { hints; _ } -> not (List.mem no_setjmp_hint hints)
          | _ -> false)
        b.insts)
    f.fblocks

(** The comparison that holds exactly when [op] does not. *)
let negate_cmp = function
  | Ceq -> Cne | Cne -> Ceq
  | Clt -> Cge | Cge -> Clt
  | Cle -> Cgt | Cgt -> Cle

(* ------------------------------------------------------------------ *)
(* Well-formedness validation                                           *)
(* ------------------------------------------------------------------ *)

exception Invalid of string

(** Check structural invariants: branch targets in range, registers
    defined before use is NOT required (registers are mutable), but
    register indexes and slot ids must be in range. *)
let validate_func (f : func) =
  let nblocks = Array.length f.fblocks in
  let check_target t =
    if t < 0 || t >= nblocks then
      raise (Invalid (Printf.sprintf "%s: branch target %d out of range"
                        f.fname t))
  in
  let check_reg r =
    if r < 0 || r >= f.fnregs then
      raise (Invalid (Printf.sprintf "%s: register %d out of range" f.fname r))
  in
  let check_op = function Reg r -> check_reg r | _ -> () in
  Array.iter
    (fun b ->
      List.iter
        (fun inst ->
          match inst with
          | Mov (r, _, o) | Cast (r, _, _, o) | Load (r, _, o) ->
              check_reg r;
              check_op o
          | Bin (r, _, _, a, b) | Cmp (r, _, _, a, b) ->
              check_reg r;
              check_op a;
              check_op b
          | Gep (r, a, b, _) ->
              check_reg r;
              check_op a;
              check_op b
          | Slotaddr (r, s) ->
              check_reg r;
              if s < 0 || s >= Array.length f.fslots then
                raise (Invalid (Printf.sprintf "%s: slot %d out of range"
                                  f.fname s))
          | Store (_, a, v) ->
              check_op a;
              check_op v
          | Call { rets; callee; args; _ } ->
              List.iter check_reg rets;
              check_op callee;
              List.iter check_op args
          | SetBoundMark (a, b) ->
              check_op a;
              check_op b
          | Check (p, b_, e, _, _) ->
              check_op p;
              check_op b_;
              check_op e
          | CheckFptr (p, b_, e, _, _) ->
              check_op p;
              check_op b_;
              check_op e
          | MetaLoad (r1, r2, a, _) ->
              check_reg r1;
              check_reg r2;
              check_op a
          | MetaStore (a, b_, e, _) ->
              check_op a;
              check_op b_;
              check_op e
          | CheckSpan { sp_first; sp_count; sp_base; sp_bound; _ } ->
              check_op sp_first;
              check_op sp_count;
              check_op sp_base;
              check_op sp_bound)
        b.insts;
      match b.term with
      | TRet ops -> List.iter check_op ops
      | TJmp t -> check_target t
      | TBr (c, t1, t2) ->
          check_op c;
          check_target t1;
          check_target t2
      | TSwitch (v, cases, d) ->
          check_op v;
          List.iter (fun (_, t) -> check_target t) cases;
          check_target d
      | TUnreachable -> ())
    f.fblocks

let validate m = iter_funcs m validate_func
