(* Threaded-code engine: a load-time compiler from each basic block of
   the pre-decoded IR to a chain of OCaml closures.

   Executing a block is a tail-call chain with no constructor dispatch:
   each closure captures its resolved operands, call-target resolution,
   and per-site metadata inline-cache cell as preallocated state, and
   ends by tail-calling the next closure (a 2-argument application,
   which the native compiler turns into a real jump through
   [caml_apply2]).  Control flow links blocks through a per-function
   join-point array resolved at compile time; the driver loop below
   re-enters a chain only at frame boundaries (calls that push a frame,
   returns, longjmp repositioning).

   Invariant: every simulated output — cycles, instruction counts,
   cache traffic, metadata probes, obs attribution, trap identity and
   ordering — is bit-identical to the decoding engine's
   ({!Vm.run_until_done}).  Each compiled closure performs the same
   accounting in the same order as the corresponding {!Vm.exec_inst}
   arm; the differential qcheck suite and the shared goldens pin this.

   The compiled artifact captures no per-run state: closures take the
   [(loaded, frame)] pair as arguments, and what they close over —
   pre-decoded [fentry] values, join-point arrays, constants, and the
   metadata cells — is either immutable or race-safe (a metadata cell
   can only produce a verified hit whose replayed accounting is
   identical to a full probe, see {!State.meta_load_cell}).  Artifacts
   are therefore cached in a module-keyed LRU and shared across runs,
   configurations, and domains. *)

module Ir = Sbir.Ir
open State
open Vm
module L = Machine.Layout
module Cost = Machine.Cost

(** A compiled instruction: execute it (and, inline, whatever follows it
    up to the next frame boundary) against the given run. *)
type k = Vm.loaded -> frame -> unit

(** Per-function compiled code: [chains.(b).(i)] enters block [b] at
    instruction index [i]; index [n] (one past the last instruction) is
    the terminator.  The extra entry points exist because frames suspend
    mid-block (calls, setjmp resume points) and the driver must re-enter
    at the frame's recorded [fr_block]/[fr_inst]. *)
type func_chains = k array array

(** Frame-cached pointer to the compiled chains, so resuming a suspended
    frame after every call return costs no hash lookup. *)
type resume += Chains of func_chains

type compiled = {
  c_modul : Ir.modul;  (** cache key, compared physically *)
  c_funcs : (string, func_chains) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Per-step accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* identical counters in identical order to the decoding engine's step
   loop, so [Step_limit] fires at exactly the same instruction — and the
   poll hook observes the same step counts on both engines *)
let[@inline] tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.cfg.max_steps then raise (Trap Step_limit);
  (match st.cfg.poll with
  | Some p when st.steps land poll_mask = 0 -> p ()
  | _ -> ());
  st.stats.insts <- st.stats.insts + 1

(* ------------------------------------------------------------------ *)
(* Operand compilation                                                  *)
(* ------------------------------------------------------------------ *)

(* Pre-decode resolved every known [Glob]/[GlobEnd]/[Func] operand to an
   [ImmI]; a surviving name is unknown in this module and traps at
   evaluation time (never earlier), exactly as {!State.eval} does.  The
   globals and function tables are fixed after load, so compiling the
   trap is sound. *)

(* Every register index is validated against the function's register
   count here, at compile time, which makes the unchecked [ureg_*]
   accessors in the emitted closures sound: the frame's register arrays
   are allocated with exactly [max 1 fnregs] entries. *)
let vreg (f : Ir.func) (r : Ir.reg) : Ir.reg =
  if r < 0 || r >= max 1 f.Ir.fnregs then
    invalid_arg
      (Printf.sprintf "Compile: register %d out of range in %s" r f.Ir.fname);
  r

let ev_value (f : Ir.func) (o : Ir.operand) : frame -> value =
  match o with
  | Ir.Reg r ->
      let r = vreg f r in
      fun fr -> ureg_value fr r
  | Ir.ImmI n ->
      let v = VI n in
      fun _ -> v
  | Ir.ImmF x ->
      let v = VF x in
      fun _ -> v
  | Ir.Glob g | Ir.GlobEnd g ->
      fun _ -> raise (Trap (Runtime_error ("unknown global " ^ g)))
  | Ir.Func fn ->
      fun _ -> raise (Trap (Runtime_error ("unknown function " ^ fn)))

let ev_int (f : Ir.func) (o : Ir.operand) : frame -> int =
  match o with
  | Ir.Reg r ->
      let r = vreg f r in
      fun fr -> ureg_int fr r
  | Ir.ImmI n -> fun _ -> n
  | o ->
      let e = ev_value f o in
      fun fr -> as_int (e fr)

(** Operands whose evaluation can neither trap nor observe state other
    than the register file — the precondition for reordering or fusing
    their evaluation in specialized closures. *)
let pure_operand = function Ir.Reg _ | Ir.ImmI _ -> true | _ -> false

(** Pure operands seen through {!State.as_float}: [ImmF] also
    qualifies. *)
let pure_operand_f = function
  | Ir.Reg _ | Ir.ImmI _ | Ir.ImmF _ -> true
  | _ -> false

(* A pure operand splits into a (selector, immediate) pair: selector
   >= 0 names a validated register, selector < 0 selects the immediate.
   Fetching is then a well-predicted conditional branch inside the
   instruction closure instead of an indirect call through a shared
   closure body — the dominant dispatch cost once operands are the only
   per-instruction indirection left. *)

let pure_parts (f : Ir.func) (o : Ir.operand) : int * int =
  match o with
  | Ir.Reg r -> (vreg f r, 0)
  | Ir.ImmI n -> (-1, n)
  | _ -> invalid_arg "Compile.pure_parts: operand is not pure"

let[@inline] fetch fr sel imm = if sel >= 0 then ureg_int fr sel else imm

let pure_parts_f (f : Ir.func) (o : Ir.operand) : int * float =
  match o with
  | Ir.Reg r -> (vreg f r, 0.0)
  | Ir.ImmI n -> (-1, float_of_int n)
  | Ir.ImmF x -> (-1, x)
  | _ -> invalid_arg "Compile.pure_parts_f: operand is not pure"

let[@inline] fetchf fr sel imm = if sel >= 0 then ureg_float fr sel else imm

(* ------------------------------------------------------------------ *)
(* Instruction compilation                                              *)
(* ------------------------------------------------------------------ *)

(** Compile one instruction at [(blk, idx)] of [f], given the closure
    for the rest of the block. *)
let compile_inst cld (c_funcs : (string, func_chains) Hashtbl.t) (f : Ir.func)
    ~blk ~idx (next : k) (inst : Ir.inst) : k =
  match inst with
  | Ir.Mov (r, _, Ir.Reg ra) ->
      (* register-to-register: copy both lanes and the tag — no box, no
         coercion branch *)
      let r = vreg f r in
      let ra = vreg f ra in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        Bytes.unsafe_set fr.fr_isf r (Bytes.unsafe_get fr.fr_isf ra);
        Array.unsafe_set fr.fr_iregs r (Array.unsafe_get fr.fr_iregs ra);
        Array.unsafe_set fr.fr_fregs r (Array.unsafe_get fr.fr_fregs ra);
        next ld fr
  | Ir.Mov (r, _, Ir.ImmI n) ->
      let r = vreg f r in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        ureg_set_int fr r n;
        next ld fr
  | Ir.Mov (r, _, Ir.ImmF x) ->
      let r = vreg f r in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        ureg_set_float fr r x;
        next ld fr
  | Ir.Mov (r, _, o) ->
      let r = vreg f r in
      let e = ev_value f o in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        ureg_set fr r (e fr);
        next ld fr
  | Ir.Bin (r, op, t, a, b)
    when (match t with Ir.I64 | Ir.U64 | Ir.P -> true | _ -> false)
         && pure_operand a && pure_operand b -> (
      (* word-width integer ALU ops: [norm_int] is the identity, the
         unsigned view is the identity, and the operands are effect-free
         — fuse evaluation, charge, and normalization *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      let signed = Ir.ity_signed t in
      match op with
      | Ir.Add ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja + fetch fr sb jb);
            next ld fr
      | Ir.Sub ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja - fetch fr sb jb);
            next ld fr
      | Ir.Mul ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.mul;
            ureg_set_int fr r (fetch fr sa ja * fetch fr sb jb);
            next ld fr
      | Ir.And ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja land fetch fr sb jb);
            next ld fr
      | Ir.Or ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja lor fetch fr sb jb);
            next ld fr
      | Ir.Xor ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja lxor fetch fr sb jb);
            next ld fr
      | Ir.Shl ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja lsl (fetch fr sb jb land 63));
            next ld fr
      | Ir.Shr ->
          if signed then fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja asr (fetch fr sb jb land 63));
            next ld fr
          else fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja lsr (fetch fr sb jb land 63));
            next ld fr
      | Ir.Div | Ir.Rem ->
          (* division traps on zero; delegate to the shared unboxed
             helper for the charge/trap sequence *)
          fun ld fr ->
            let st = ld.st in
            tick st;
            ureg_set_int fr r
              (Vm.exec_bin_int st op t (fetch fr sa ja) (fetch fr sb jb));
            next ld fr)
  | Ir.Bin (r, op, t, a, b)
    when (not (Ir.ity_is_float t)) && pure_operand a && pure_operand b ->
      (* narrow integer types: [norm_int]/unsigned views matter, so go
         through the unboxed ALU helper — still no operand closures and
         no boxing *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_int fr r
          (Vm.exec_bin_int st op t (fetch fr sa ja) (fetch fr sb jb));
        next ld fr
  | Ir.Bin (r, op, t, a, b)
    when Ir.ity_is_float t && pure_operand_f a && pure_operand_f b ->
      let r = vreg f r in
      let sa, ja = pure_parts_f f a and sb, jb = pure_parts_f f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_float fr r
          (Vm.exec_bin_float st op (fetchf fr sa ja) (fetchf fr sb jb));
        next ld fr
  | Ir.Bin (r, op, t, a, b) ->
      let r = vreg f r in
      let ea = ev_value f a and eb = ev_value f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        (* mirror the decoding engine's right-to-left argument
           evaluation, so a trapping operand charges identically *)
        let vb = eb fr in
        let va = ea fr in
        ureg_set fr r (Vm.exec_bin st op t va vb);
        next ld fr
  | Ir.Cmp (r, op, t, a, b)
    when (match t with
         | Ir.I8 | Ir.I16 | Ir.I32 | Ir.I64 | Ir.U64 | Ir.P -> true
         | _ -> false)
         && pure_operand a && pure_operand b -> (
      (* signed types compare raw normalized values; for U64/P the
         unsigned view is the identity — either way a direct native
         comparison matches {!Vm.exec_cmp} *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      match op with
      | Ir.Ceq ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (if fetch fr sa ja = fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Cne ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r
              (if fetch fr sa ja <> fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Clt ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (if fetch fr sa ja < fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Cle ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r
              (if fetch fr sa ja <= fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Cgt ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (if fetch fr sa ja > fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Cge ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r
              (if fetch fr sa ja >= fetch fr sb jb then 1 else 0);
            next ld fr)
  | Ir.Cmp (r, op, t, a, b)
    when (not (Ir.ity_is_float t)) && pure_operand a && pure_operand b ->
      (* remaining (narrow unsigned) integer types: the shared unboxed
         helper applies the unsigned view *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_int fr r
          (Vm.exec_cmp_int st op t (fetch fr sa ja) (fetch fr sb jb));
        next ld fr
  | Ir.Cmp (r, op, t, a, b)
    when Ir.ity_is_float t && pure_operand_f a && pure_operand_f b ->
      let r = vreg f r in
      let sa, ja = pure_parts_f f a and sb, jb = pure_parts_f f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_int fr r
          (Vm.exec_cmp_float st op (fetchf fr sa ja) (fetchf fr sb jb));
        next ld fr
  | Ir.Cmp (r, op, t, a, b) ->
      let r = vreg f r in
      let ea = ev_value f a and eb = ev_value f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let vb = eb fr in
        let va = ea fr in
        ureg_set fr r (Vm.exec_cmp st op t va vb);
        next ld fr
  | Ir.Cast (r, to_, from_, o)
    when (not (Ir.ity_is_float to_))
         && (not (Ir.ity_is_float from_))
         && pure_operand o ->
      (* int-to-int cast is charge + renormalize *)
      let r = vreg f r in
      let s, j = pure_parts f o in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        ureg_set_int fr r (Ir.norm_int to_ (fetch fr s j));
        next ld fr
  | Ir.Cast (r, to_, from_, o) ->
      let r = vreg f r in
      let e = ev_value f o in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set fr r (Vm.exec_cast st to_ from_ (e fr));
        next ld fr
  | Ir.Load (r, t, a) when (not (Ir.ity_is_float t)) && pure_operand a ->
      let r = vreg f r in
      let s, j = pure_parts f a in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_int fr r (Vm.do_load_int st t (fetch fr s j));
        next ld fr
  | Ir.Load (r, t, a) when Ir.ity_is_float t && pure_operand a ->
      let r = vreg f r in
      let s, j = pure_parts f a in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_float fr r (Vm.do_load_float st t (fetch fr s j));
        next ld fr
  | Ir.Load (r, t, a) ->
      let r = vreg f r in
      let ia = ev_int f a in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set fr r (Vm.do_load st t (ia fr));
        next ld fr
  | Ir.Store (t, a, v)
    when (not (Ir.ity_is_float t)) && pure_operand a && pure_operand v ->
      let sa, ja = pure_parts f a and sv, jv = pure_parts f v in
      fun ld fr ->
        let st = ld.st in
        tick st;
        Vm.do_store_int st t (fetch fr sa ja) (fetch fr sv jv);
        next ld fr
  | Ir.Store (t, a, v)
    when Ir.ity_is_float t && pure_operand a && pure_operand_f v ->
      let sa, ja = pure_parts f a and sv, jv = pure_parts_f f v in
      fun ld fr ->
        let st = ld.st in
        tick st;
        Vm.do_store_float st t (fetch fr sa ja) (fetchf fr sv jv);
        next ld fr
  | Ir.Store (t, a, v) ->
      let ia = ev_int f a and ev = ev_value f v in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let vv = ev fr in
        let addr = ia fr in
        Vm.do_store st t addr vv;
        next ld fr
  | Ir.Gep (r, base, off, _) when pure_operand base && pure_operand off ->
      let r = vreg f r in
      let sb, jb = pure_parts f base and so, jo = pure_parts f off in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        let b = fetch fr sb jb in
        let d = b + fetch fr so jo in
        (match st.cfg.checker with
        | Some _ -> checker_event st (Ev_ptr_arith { src = b; dst = d })
        | None -> ());
        ureg_set_int fr r d;
        next ld fr
  | Ir.Gep (r, base, off, _) ->
      let r = vreg f r in
      let ib = ev_int f base and io = ev_int f off in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        let b = ib fr in
        let d = b + io fr in
        (match st.cfg.checker with
        | Some _ -> checker_event st (Ev_ptr_arith { src = b; dst = d })
        | None -> ());
        ureg_set_int fr r d;
        next ld fr
  | Ir.Slotaddr (r, s) ->
      let r = vreg f r in
      (* the slot address is a per-function constant offset from the
         frame pointer *)
      let off = -16 - f.Ir.fframe_size + f.Ir.fslots.(s).Ir.sl_offset in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.alloca;
        ureg_set_int fr r (fr.fr_fp + off);
        next ld fr
  | Ir.SetBoundMark _ ->
      fun ld fr ->
        tick ld.st;
        next ld fr
  | Ir.Check (p, b, e, size, site)
    when pure_operand p && pure_operand b && pure_operand e ->
      let sp, jp = pure_parts f p in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      let where = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        sb_check st ~site ~where ~ptr:(fetch fr sp jp) ~base:(fetch fr sb jb)
          ~bound:(fetch fr se je) ~size;
        next ld fr
  | Ir.Check (p, b, e, size, site) ->
      let ip = ev_int f p and ib = ev_int f b and ie = ev_int f e in
      let where = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let bnd = ie fr in
        let bas = ib fr in
        let pv = ip fr in
        sb_check st ~site ~where ~ptr:pv ~base:bas ~bound:bnd ~size;
        next ld fr
  | Ir.CheckSpan sp ->
      let ifirst = ev_int f sp.Ir.sp_first in
      let icount = ev_int f sp.Ir.sp_count in
      let ibase = ev_int f sp.Ir.sp_base in
      let ibound = ev_int f sp.Ir.sp_bound in
      let stride = sp.Ir.sp_stride and width = sp.Ir.sp_width in
      let site = sp.Ir.sp_site and sites = sp.Ir.sp_sites in
      let where = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let bound = ibound fr in
        let base = ibase fr in
        let count = icount fr in
        let first = ifirst fr in
        sb_check_span st ~site ~sites ~where ~first ~count ~stride ~width
          ~base ~bound;
        next ld fr
  | Ir.CheckFptr (p, b, e, expected_sig, site)
    when pure_operand p && pure_operand b && pure_operand e ->
      let sp, jp = pure_parts f p in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      let fname = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        st.stats.checks <- st.stats.checks + 1;
        let cy0 = st.stats.cycles in
        charge st Cost.check;
        Vm.check_fptr ld ~fname ~site ~expected_sig ~cy0 (fetch fr sp jp)
          (fetch fr sb jb) (fetch fr se je);
        next ld fr
  | Ir.CheckFptr (p, b, e, expected_sig, site) ->
      let ip = ev_int f p and ib = ev_int f b and ie = ev_int f e in
      let fname = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        st.stats.checks <- st.stats.checks + 1;
        let cy0 = st.stats.cycles in
        charge st Cost.check;
        let pv = ip fr in
        let bv = ib fr in
        let ev = ie fr in
        Vm.check_fptr ld ~fname ~site ~expected_sig ~cy0 pv bv ev;
        next ld fr
  | Ir.MetaLoad (rb, re, a, site) when pure_operand a ->
      let rb = vreg f rb and re = vreg f re in
      let sa, ja = pure_parts f a in
      (* the per-site inline cache lives in the closure environment *)
      let cell = fresh_meta_cell () in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let b, e = meta_load_cell ~site st cell 0 (fetch fr sa ja) in
        ureg_set_int fr rb b;
        ureg_set_int fr re e;
        next ld fr
  | Ir.MetaLoad (rb, re, a, site) ->
      let rb = vreg f rb and re = vreg f re in
      let ia = ev_int f a in
      let cell = fresh_meta_cell () in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let b, e = meta_load_cell ~site st cell 0 (ia fr) in
        ureg_set_int fr rb b;
        ureg_set_int fr re e;
        next ld fr
  | Ir.MetaStore (a, b, e, site)
    when pure_operand a && pure_operand b && pure_operand e ->
      let sa, ja = pure_parts f a in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      fun ld fr ->
        let st = ld.st in
        tick st;
        meta_store ~site st (fetch fr sa ja) (fetch fr sb jb) (fetch fr se je);
        next ld fr
  | Ir.MetaStore (a, b, e, site) ->
      let ia = ev_int f a and ib = ev_int f b and ie = ev_int f e in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let ev = ie fr in
        let bv = ib fr in
        let av = ia fr in
        meta_store ~site st av bv ev;
        next ld fr
  | Ir.Call { rets; callee; args; _ } -> (
      let evs = List.map (ev_value f) args in
      (* unrolled argument evaluation: no [List.map] closure traffic on
         the common sub-4-arity calls *)
      let eval_args : frame -> value list =
        match evs with
        | [] -> fun _ -> []
        | [ e1 ] -> fun fr -> [ e1 fr ]
        | [ e1; e2 ] ->
            fun fr ->
              let v1 = e1 fr in
              let v2 = e2 fr in
              [ v1; v2 ]
        | [ e1; e2; e3 ] ->
            fun fr ->
              let v1 = e1 fr in
              let v2 = e2 fr in
              let v3 = e3 fr in
              [ v1; v2; v3 ]
        | evs -> fun fr -> List.map (fun e -> e fr) evs
      in
      let nexti = idx + 1 in
      (* after the dispatch: continue inline iff this very frame is
         still on top at the position just past the call.  A pushed
         frame, a longjmp elsewhere, or a popped frame all fail the
         test and bounce to the driver; a longjmp that lands exactly at
         [(blk, idx+1)] — a setjmp recorded there — passes it, and
         continuing inline is precisely the resume semantics. *)
      let finish ld fr =
        match ld.st.frames with
        | top :: _ when top == fr && fr.fr_block = blk && fr.fr_inst = nexti
          ->
            next ld fr
        | _ -> ()
      in
      match callee with
      | Ir.Func name -> (
          (* direct call: classify the target once, at compile time *)
          match Vm.resolve cld name with
          | Vm.RFunc fe ->
              (* interpreted target: push directly and seed the new
                 frame's chain pointer, so neither the dispatch
                 classification nor {!chains_for}'s name lookup runs per
                 call.  The callee's chains are memoized on first
                 execution ([c_funcs] is still being filled while this
                 closure is compiled). *)
              let chains_cell = ref ([||] : func_chains) in
              fun ld fr ->
                let st = ld.st in
                tick st;
                fr.fr_inst <- nexti;
                let argvals = eval_args fr in
                Vm.push_frame ld fe argvals rets;
                (match st.frames with
                | top :: _ ->
                    let ch = !chains_cell in
                    let ch =
                      if Array.length ch > 0 then ch
                      else begin
                        let c = Hashtbl.find c_funcs name in
                        chains_cell := c;
                        c
                      end
                    in
                    top.fr_resume <- Chains ch
                | [] -> ());
                finish ld fr
          | r ->
              fun ld fr ->
                let st = ld.st in
                tick st;
                fr.fr_inst <- nexti;
                let argvals = eval_args fr in
                Vm.dispatch_resolved ld ~name ~argvals ~rets r;
                finish ld fr)
      | op ->
          let ic = ev_int f op in
          fun ld fr ->
            let st = ld.st in
            tick st;
            fr.fr_inst <- nexti;
            let argvals = eval_args fr in
            let v = ic fr in
            (match Vm.describe_code_value st v with
            | Some name -> Vm.dispatch_call ld ~name ~argvals ~rets
            | None ->
                raise
                  (Trap
                     (Runtime_error
                        (Printf.sprintf
                           "indirect call to non-function address 0x%x" v))));
            finish ld fr)

(** Compile a terminator.  [entries.(t)] is the join-point array — the
    head closure of every block of this function, filled after all
    blocks are compiled, so forward branches resolve to closures without
    a compile-order constraint. *)
let compile_term (f : Ir.func) (entries : k array) (term : Ir.terminator) : k =
  match term with
  | Ir.TRet ops ->
      let evs = List.map (ev_value f) ops in
      fun ld fr ->
        tick ld.st;
        Vm.pop_frame ld (List.map (fun e -> e fr) evs)
        (* the frame changed: always bounce to the driver *)
  | Ir.TJmp t ->
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld fr
  | Ir.TBr (c, t1, t2) when pure_operand c ->
      let s, j = pure_parts f c in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        let t = if fetch fr s j <> 0 then t1 else t2 in
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld fr
  | Ir.TBr (c, t1, t2) ->
      let ic = ev_int f c in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        let t = if ic fr <> 0 then t1 else t2 in
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld fr
  | Ir.TSwitch (v, cases, default) ->
      let iv = ev_int f v in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st (Cost.basic * 2);
        let x = iv fr in
        let rec find = function
          | [] -> default
          | (k, t) :: tl -> if (k : int) = x then t else find tl
        in
        let t = find cases in
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld fr
  | Ir.TUnreachable ->
      fun ld _ ->
        tick ld.st;
        raise (Trap (Runtime_error "unreachable executed (missing return?)"))

let dummy_k : k = fun _ _ -> assert false

let compile_func cld c_funcs (fe : Vm.fentry) : func_chains =
  let f = fe.Vm.fe_func in
  let nblocks = Array.length fe.Vm.fe_code in
  let entries = Array.make nblocks dummy_k in
  let chains =
    Array.init nblocks (fun b ->
        let insts = fe.Vm.fe_code.(b) in
        let n = Array.length insts in
        let arr = Array.make (n + 1) dummy_k in
        arr.(n) <- compile_term f entries f.Ir.fblocks.(b).Ir.term;
        (* fill backward so each closure captures its successor
           directly — the common case never touches an array *)
        for i = n - 1 downto 0 do
          arr.(i) <- compile_inst cld c_funcs f ~blk:b ~idx:i arr.(i + 1) insts.(i)
        done;
        arr)
  in
  Array.iteri (fun b chain -> entries.(b) <- chain.(0)) chains;
  chains

(* ------------------------------------------------------------------ *)
(* The driver                                                           *)
(* ------------------------------------------------------------------ *)

let chains_for comp (fr : frame) : func_chains =
  match fr.fr_resume with
  | Chains c -> c
  | _ ->
      let c = Hashtbl.find comp.c_funcs fr.fr_func.Ir.fname in
      fr.fr_resume <- Chains c;
      c

(** Run the top frame (and everything it calls) until the frame stack
    shrinks back to [depth].  A chain bounces back here only at frame
    boundaries; the loop then re-enters the new top frame at its
    recorded position. *)
let drive comp (ld : Vm.loaded) (depth : int) : unit =
  let st = ld.st in
  while st.n_frames > depth do
    match st.frames with
    | [] -> ()
    | fr :: _ ->
        let chains = chains_for comp fr in
        (Array.unsafe_get (Array.unsafe_get chains fr.fr_block) fr.fr_inst)
          ld fr
  done

(** Re-entrant call on this engine (installed as {!Vm.loaded.reenter}):
    qsort/bsearch comparators execute compiled chains, not the decode
    loop. *)
let reenter comp (ld : Vm.loaded) (fe : Vm.fentry) (args : value list) :
    value list =
  let st = ld.st in
  let depth = st.n_frames in
  Vm.push_frame ld fe args [];
  drive comp ld depth;
  st.last_rets

(* ------------------------------------------------------------------ *)
(* Compile cache                                                        *)
(* ------------------------------------------------------------------ *)

(* Compiled artifacts are pure with respect to the run (see the header
   comment), so they are cached per module and shared across runs,
   schemes, and domains.  Keyed by physical equality of the (immutable)
   module value — the same key discipline as Runner's transform cache,
   which this composes with: Runner memoizes the transformed module per
   (module, opts), and each distinct transformed module compiles once
   here. *)

let cache_capacity = 32
let cache_lock = Mutex.create ()
let cache : compiled list ref = ref []

let compiled_for (ld : Vm.loaded) : compiled =
  let m = ld.Vm.st.modul in
  Mutex.lock cache_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_lock)
    (fun () ->
      match List.find_opt (fun c -> c.c_modul == m) !cache with
      | Some c ->
          (* move to front *)
          cache := c :: List.filter (fun c' -> c' != c) !cache;
          c
      | None ->
          let c_funcs = Hashtbl.create 64 in
          (* snapshot first: compiling resolves callees, which memoizes
             into [ld.resolved] *)
          let fes =
            Hashtbl.fold
              (fun name r acc ->
                match r with Vm.RFunc fe -> (name, fe) :: acc | _ -> acc)
              ld.Vm.resolved []
          in
          List.iter
            (fun (name, fe) ->
              Hashtbl.replace c_funcs name (compile_func ld c_funcs fe))
            fes;
          let c = { c_modul = m; c_funcs } in
          cache := c :: !cache;
          (if List.length !cache > cache_capacity then
             match List.rev !cache with
             | last :: _ -> cache := List.filter (fun c' -> c' != last) !cache
             | [] -> ());
          c)

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

(** Attach the compiled code for [ld]'s module (compiling on first
    sight) and install the re-entry hook. *)
let attach (ld : Vm.loaded) : compiled =
  let comp = compiled_for ld in
  ld.Vm.reenter <- Some (fun ld fe args -> reenter comp ld fe args);
  comp

let run_to_completion comp (ld : Vm.loaded) : int =
  try
    drive comp ld 0;
    0
  with Vm.Program_exit n -> n

(** {!Vm.run_main} on the threaded-code engine. *)
let run_main (ld : Vm.loaded) : outcome =
  let comp = attach ld in
  Vm.run_main ~exec:(run_to_completion comp) ld

(** Load and run a module to completion on the threaded-code engine. *)
let run ?(cfg = default_config) (m : Ir.modul) : Vm.result =
  let ld = Vm.create ~cfg m in
  Vm.finish ld (run_main ld)
