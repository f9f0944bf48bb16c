(* The IR interpreter.

   Frames live in simulated memory with the classic x86 shape — locals
   below a saved-frame-pointer word and a return token — so stack-smashing
   attacks genuinely corrupt control data, and hijacks are *observed*
   (via token/function-pointer validation at control transfers), not
   assumed.  Costs are charged per executed instruction from the
   {!Machine.Cost} model plus cache penalties, which is what the benchmark
   harness reports as simulated cycles. *)

module Ir = Sbir.Ir
open State
module Mem = Machine.Memory
module L = Machine.Layout
module Cost = Machine.Cost

(* ------------------------------------------------------------------ *)
(* Setup                                                                *)
(* ------------------------------------------------------------------ *)

(** A module function, pre-decoded at load: per-block instruction
    arrays (with [Glob]/[GlobEnd]/[Func] operands resolved to immediate
    addresses) and the parameter registers as an array. *)
type fentry = {
  fe_func : Ir.func;  (** the operand-resolved copy *)
  fe_code : Ir.inst array array;
  fe_params : Ir.reg array;
}

(** What a call target resolves to — computed once per distinct name
    instead of re-classifying (prefix tests, prototype-list walks) on
    every call.  The [bool] is the [_sb_] checked-wrapper flag. *)
type resolution =
  | RFunc of fentry
  | RSetjmp of bool
  | RLongjmp of bool
  | RQsort of bool
  | RBsearch of bool
  | RBuiltin of bool
  | RUndefined of bool

type loaded = {
  st : t;
  code : (string, Ir.inst array array) Hashtbl.t;
  resolved : (string, resolution) Hashtbl.t;
      (** module functions are installed at load; other names (builtins,
          wrappers, undefined) are classified on first call *)
  sig_hashes : (string, int option) Hashtbl.t;
      (** memoized {!callee_sig_hash} results *)
  mutable reenter : (loaded -> fentry -> value list -> value list) option;
      (** engine hook for re-entrant builtin-to-interpreted calls (qsort
          comparators): the active engine installs its own
          push-and-run-to-return here so comparators execute on the same
          engine as the rest of the program.  [None] falls back to the
          decoding engine's {!call_function}. *)
}

let build_code (f : Ir.func) : Ir.inst array array =
  Array.map (fun (b : Ir.block) -> Array.of_list b.Ir.insts) f.Ir.fblocks

(* --- pre-decode: resolve name-valued operands to addresses --- *)

(* Globals are laid out (and function indices assigned) before any code
   runs, so [Glob]/[GlobEnd]/[Func] operands can be folded to immediate
   addresses at load.  Names that don't resolve are left in place: they
   keep trapping lazily at evaluation time, exactly as before. *)
let resolve_operand st (o : Ir.operand) : Ir.operand =
  match o with
  | Ir.Glob g -> (
      match Hashtbl.find_opt st.globals g with
      | Some (a, _) -> Ir.ImmI a
      | None -> o)
  | Ir.GlobEnd g -> (
      match Hashtbl.find_opt st.globals g with
      | Some (a, s) -> Ir.ImmI (a + s)
      | None -> o)
  | Ir.Func f -> (
      match Hashtbl.find_opt st.func_index f with
      | Some i -> Ir.ImmI (L.func_addr i)
      | None -> o)
  | o -> o

let predecode_inst st (i : Ir.inst) : Ir.inst =
  match i with
  | Ir.Call ({ callee; args; _ } as c) ->
      (* a direct callee keeps its name — calls dispatch by name, not by
         code address *)
      let callee =
        match callee with Ir.Func _ as f -> f | op -> resolve_operand st op
      in
      Ir.Call { c with callee; args = List.map (resolve_operand st) args }
  | i -> Ir.map_inst_operands (resolve_operand st) i

let predecode_term st (t : Ir.terminator) : Ir.terminator =
  match t with
  | Ir.TRet ops -> Ir.TRet (List.map (resolve_operand st) ops)
  | Ir.TBr (c, t1, t2) -> Ir.TBr (resolve_operand st c, t1, t2)
  | Ir.TSwitch (v, cases, d) -> Ir.TSwitch (resolve_operand st v, cases, d)
  | (Ir.TJmp _ | Ir.TUnreachable) as t -> t

let predecode_func st (f : Ir.func) : Ir.func =
  {
    f with
    Ir.fblocks =
      Array.map
        (fun (b : Ir.block) ->
          {
            Ir.insts = List.map (predecode_inst st) b.Ir.insts;
            Ir.term = predecode_term st b.Ir.term;
          })
        f.Ir.fblocks;
  }

let create ?(cfg = default_config) (m : Ir.modul) : loaded =
  let mem = Mem.create () in
  let heap = Machine.Heap.create mem in
  let cache = Machine.Cache.create () in
  let func_names = Array.of_list m.Ir.mfunc_order in
  let func_index = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace func_index n i) func_names;
  (* builtins get code addresses too (so &strcmp etc. are callable);
     append them after the defined functions *)
  let builtin_names =
    List.concat_map
      (fun (n, _) -> [ n; "_sb_" ^ n ])
      Cminus.Builtins.functions
    |> List.filter (fun n -> not (Hashtbl.mem func_index n))
  in
  let func_names = Array.append func_names (Array.of_list builtin_names) in
  Array.iteri (fun i n -> Hashtbl.replace func_index n i) func_names;
  (* round the requested initial hash-table capacity up to a power of
     two (the probe index masks with [ht_entries - 1]) *)
  let ht_entries0 =
    let rec up n = if n >= max 64 cfg.ht_entries_init then n else up (n * 2) in
    up 64
  in
  let st =
    {
      cfg;
      modul = m;
      mem;
      heap;
      cache;
      stats = mk_stats ();
      obs =
        Obs.create ~enabled:cfg.obs_enabled
          ~trace_depth:(if cfg.obs_enabled then cfg.trace_depth else 0) ();
      globals = Hashtbl.create 64;
      func_names;
      func_index;
      builtins = Hashtbl.create 64;
      sp = L.stack_top;
      frames = [];
      n_frames = 0;
      next_uid = 1;
      steps = 0;
      out = Buffer.create 4096;
      inputs = cfg.inputs;
      rand_state = 42;
      last_rets = [];
      jmp_bufs = Hashtbl.create 8;
      reg_pool = Array.make reg_pool_buckets [];
      ht_entries = ht_entries0;
      ht_live = 0;
      mc = Array.make (2 * mc_size) min_int;
    }
  in
  (* lay out globals: two passes (addresses first, then initializers,
     which may reference other globals' addresses) *)
  List.iter
    (fun (g : Ir.global) ->
      let addr = Mem.alloc_global mem ~size:g.Ir.gsize ~align:(max 1 g.Ir.galign) in
      Hashtbl.replace st.globals g.Ir.gname (addr, g.Ir.gsize))
    m.Ir.mglobals;
  List.iter
    (fun (g : Ir.global) ->
      let base, _ = Hashtbl.find st.globals g.Ir.gname in
      List.iter
        (fun (off, v) ->
          match v with
          | Ir.GInt (x, w) -> Mem.write_int mem (base + off) w x
          | Ir.GF32 f -> Mem.write_f32 mem (base + off) f
          | Ir.GF64 f -> Mem.write_f64 mem (base + off) f
          | Ir.GAddr (name, o) ->
              let a, _ = Hashtbl.find st.globals name in
              Mem.write_int mem (base + off) 8 (a + o)
          | Ir.GFuncAddr name -> (
              match Hashtbl.find_opt st.func_index name with
              | Some i -> Mem.write_int mem (base + off) 8 (L.func_addr i)
              | None -> ()))
        g.Ir.ginit)
    m.Ir.mglobals;
  (* checker sees the globals as objects *)
  List.iter
    (fun (g : Ir.global) ->
      let base, size = Hashtbl.find st.globals g.Ir.gname in
      checker_event st (Ev_alloc { base; size; kind = AGlobal }))
    m.Ir.mglobals;
  List.iter
    (fun (n, sg) -> Hashtbl.replace st.builtins n sg)
    Cminus.Builtins.functions;
  (* pre-decode every function now that globals and function indices are
     fixed *)
  let code = Hashtbl.create 64 in
  let resolved = Hashtbl.create 64 in
  Ir.iter_funcs m (fun f ->
      let pf = predecode_func st f in
      let fe =
        {
          fe_func = pf;
          fe_code = build_code pf;
          fe_params = Array.of_list (List.map fst pf.Ir.fparams);
        }
      in
      Hashtbl.replace code f.Ir.fname fe.fe_code;
      Hashtbl.replace resolved f.Ir.fname (RFunc fe));
  { st; code; resolved; sig_hashes = Hashtbl.create 64; reenter = None }

(* ------------------------------------------------------------------ *)
(* Operand evaluation                                                   *)
(* ------------------------------------------------------------------ *)

let global_addr st name =
  match Hashtbl.find_opt st.globals name with
  | Some (a, _) -> a
  | None -> raise (Trap (Runtime_error ("unknown global " ^ name)))

let global_end st name =
  match Hashtbl.find_opt st.globals name with
  | Some (a, s) -> a + s
  | None -> raise (Trap (Runtime_error ("unknown global " ^ name)))

let func_addr_of st name =
  match Hashtbl.find_opt st.func_index name with
  | Some i -> L.func_addr i
  | None -> raise (Trap (Runtime_error ("unknown function " ^ name)))

let eval st fr (o : Ir.operand) : value =
  match o with
  | Ir.Reg r -> reg_value fr r
  | Ir.ImmI n -> VI n
  | Ir.ImmF f -> VF f
  | Ir.Glob g -> VI (global_addr st g)
  | Ir.GlobEnd g -> VI (global_end st g)
  | Ir.Func f -> VI (func_addr_of st f)

let eval_int st fr o =
  match o with
  | Ir.Reg r -> reg_int fr r
  | Ir.ImmI n -> n
  | o -> as_int (eval st fr o)

(* ------------------------------------------------------------------ *)
(* ALU                                                                  *)
(* ------------------------------------------------------------------ *)

(** Integer half of {!exec_bin}, unboxed: [t] must not be a float type.
    The threaded-code engine calls this directly for int-typed ALU ops
    with effect-free operands, avoiding the [value] boxing. *)
let exec_bin_int st (op : Ir.binop) (t : Ir.ity) (x : int) (y : int) : int =
  let signed = Ir.ity_signed t in
  let r =
    match op with
    | Ir.Add ->
        charge st Cost.basic;
        x + y
    | Ir.Sub ->
        charge st Cost.basic;
        x - y
    | Ir.Mul ->
        charge st Cost.mul;
        x * y
    | Ir.Div ->
        charge st Cost.div;
        if y = 0 then raise (Trap (Runtime_error "division by zero"));
        if signed then x / y
        else Ir.unsigned_view t x / Ir.unsigned_view t y
    | Ir.Rem ->
        charge st Cost.div;
        if y = 0 then raise (Trap (Runtime_error "modulo by zero"));
        if signed then x mod y
        else Ir.unsigned_view t x mod Ir.unsigned_view t y
    | Ir.And ->
        charge st Cost.basic;
        x land y
    | Ir.Or ->
        charge st Cost.basic;
        x lor y
    | Ir.Xor ->
        charge st Cost.basic;
        x lxor y
    | Ir.Shl ->
        charge st Cost.basic;
        x lsl (y land 63)
    | Ir.Shr ->
        charge st Cost.basic;
        if signed then x asr (y land 63)
        else Ir.unsigned_view t x lsr (y land 63)
  in
  Ir.norm_int t r

(** Float half of {!exec_bin}, unboxed. *)
let exec_bin_float st (op : Ir.binop) (x : float) (y : float) : float =
  match op with
  | Ir.Add ->
      charge st Cost.fbasic;
      x +. y
  | Ir.Sub ->
      charge st Cost.fbasic;
      x -. y
  | Ir.Mul ->
      charge st Cost.fbasic;
      x *. y
  | Ir.Div ->
      charge st Cost.fdiv;
      x /. y
  | _ -> raise (Trap (Runtime_error "float bitwise operation"))

let exec_bin st (op : Ir.binop) (t : Ir.ity) (a : value) (b : value) : value =
  if Ir.ity_is_float t then VF (exec_bin_float st op (as_float a) (as_float b))
  else VI (exec_bin_int st op t (as_int a) (as_int b))

(** Integer half of {!exec_cmp}, unboxed (returns 0 or 1): [t] must not
    be a float type. *)
let exec_cmp_int st (op : Ir.cmpop) (t : Ir.ity) (x : int) (y : int) : int =
  charge st Cost.basic;
  (* monomorphic compares: the polymorphic primitive is a C call per
     executed comparison *)
  let c =
    if Ir.ity_signed t then Int.compare x y
    else Int.compare (Ir.unsigned_view t x) (Ir.unsigned_view t y)
  in
  let r =
    match op with
    | Ir.Ceq -> c = 0
    | Ir.Cne -> c <> 0
    | Ir.Clt -> c < 0
    | Ir.Cle -> c <= 0
    | Ir.Cgt -> c > 0
    | Ir.Cge -> c >= 0
  in
  if r then 1 else 0

(** Float half of {!exec_cmp}, unboxed (returns 0 or 1). *)
let exec_cmp_float st (op : Ir.cmpop) (x : float) (y : float) : int =
  charge st Cost.basic;
  (* agrees with the int path's [Int.compare] shape on floats, NaN
     included *)
  let c = Float.compare x y in
  let r =
    match op with
    | Ir.Ceq -> c = 0
    | Ir.Cne -> c <> 0
    | Ir.Clt -> c < 0
    | Ir.Cle -> c <= 0
    | Ir.Cgt -> c > 0
    | Ir.Cge -> c >= 0
  in
  if r then 1 else 0

let exec_cmp st (op : Ir.cmpop) (t : Ir.ity) (a : value) (b : value) : value =
  if Ir.ity_is_float t then
    VI (exec_cmp_float st op (as_float a) (as_float b))
  else VI (exec_cmp_int st op t (as_int a) (as_int b))

let exec_cast st (to_ : Ir.ity) (from_ : Ir.ity) (v : value) : value =
  charge st Cost.basic;
  match (Ir.ity_is_float to_, Ir.ity_is_float from_) with
  | true, true ->
      let f = as_float v in
      (match to_ with
      | Ir.F32 -> VF (Int32.float_of_bits (Int32.bits_of_float f))
      | _ -> VF f)
  | true, false -> VF (float_of_int (as_int v))
  | false, true ->
      let f = as_float v in
      let i =
        if Float.is_nan f then 0
        else if f >= 4.611686018427388e18 then max_int
        else if f <= -4.611686018427388e18 then min_int
        else int_of_float f
      in
      VI (Ir.norm_int to_ i)
  | false, false -> VI (Ir.norm_int to_ (as_int v))

(* ------------------------------------------------------------------ *)
(* Memory access                                                        *)
(* ------------------------------------------------------------------ *)

let do_load st (t : Ir.ity) addr : value =
  let size = Ir.ity_size t in
  program_read st addr size;
  (match t with
  | Ir.P -> st.stats.ptr_mem_ops <- st.stats.ptr_mem_ops + 1
  | _ -> ());
  match t with
  | Ir.F64 -> VF (Mem.read_f64 st.mem addr)
  | Ir.F32 -> VF (Mem.read_f32 st.mem addr)
  | Ir.P -> VI (Mem.read_int st.mem addr 8)
  | t ->
      let raw = Mem.read_int st.mem addr (Ir.ity_size t) in
      VI
        (if Ir.ity_signed t then Mem.sign_extend raw (Ir.ity_size t) else raw)

(** [do_load] for a statically-known non-float [t]: same accounting and
    result bits, but returns the raw int so the threaded-code engine can
    store it without boxing. *)
let do_load_int st (t : Ir.ity) addr : int =
  let size = Ir.ity_size t in
  program_read st addr size;
  match t with
  | Ir.P ->
      st.stats.ptr_mem_ops <- st.stats.ptr_mem_ops + 1;
      Mem.read_int st.mem addr 8
  | t ->
      let raw = Mem.read_int st.mem addr (Ir.ity_size t) in
      if Ir.ity_signed t then Mem.sign_extend raw (Ir.ity_size t) else raw

(** [do_store] for a statically-known non-float [t], taking the raw
    int. *)
let do_store_int st (t : Ir.ity) addr (v : int) : unit =
  let size = Ir.ity_size t in
  program_write st addr size;
  (match t with
  | Ir.P -> st.stats.ptr_mem_ops <- st.stats.ptr_mem_ops + 1
  | _ -> ());
  Mem.write_int st.mem addr size v

(** [do_load] for a statically-known float [t], unboxed. *)
let do_load_float st (t : Ir.ity) addr : float =
  match t with
  | Ir.F64 ->
      program_read st addr 8;
      Mem.read_f64 st.mem addr
  | _ ->
      program_read st addr 4;
      Mem.read_f32 st.mem addr

(** [do_store] for a statically-known float [t], unboxed. *)
let do_store_float st (t : Ir.ity) addr (x : float) : unit =
  match t with
  | Ir.F64 ->
      program_write st addr 8;
      Mem.write_f64 st.mem addr x
  | _ ->
      program_write st addr 4;
      Mem.write_f32 st.mem addr x

let do_store st (t : Ir.ity) addr (v : value) : unit =
  match t with
  | Ir.F64 ->
      program_write st addr 8;
      Mem.write_f64 st.mem addr (as_float v)
  | Ir.F32 ->
      program_write st addr 4;
      Mem.write_f32 st.mem addr (as_float v)
  | t -> do_store_int st t addr (as_int v)

(* ------------------------------------------------------------------ *)
(* Frames                                                               *)
(* ------------------------------------------------------------------ *)

exception Program_exit of int

(** Assign returned values to the caller's receiving registers (extra
    values on either side are ignored, as before). *)
let assign_rets (fr : frame) (ret_regs : Ir.reg list) (out : value list) : unit =
  match (ret_regs, out) with
  | [], _ | _, [] -> ()
  | [ r ], v :: _ -> reg_set fr r v
  | rs, _ ->
      let rec go rs out =
        match (rs, out) with
        | r :: rs, v :: out ->
            reg_set fr r v;
            go rs out
        | _, _ -> ()
      in
      go rs out

let push_frame ld (fe : fentry) (args : value list) (ret_regs : Ir.reg list) =
  let st = ld.st in
  let f = fe.fe_func in
  st.stats.calls <- st.stats.calls + 1;
  charge st Cost.call;
  if st.n_frames > 100_000 then
    raise (Trap (Runtime_error "call stack overflow"));
  let fp = st.sp in
  let total = 16 + f.Ir.fframe_size in
  let new_sp = fp - total in
  (try Mem.set_stack_low st.mem new_sp
   with Mem.Segfault a -> raise (Trap (Segfault a)));
  let uid = st.next_uid in
  st.next_uid <- uid + 1;
  let token = ret_token_magic + uid in
  let saved_fp =
    match st.frames with [] -> L.stack_top | fr :: _ -> fr.fr_fp
  in
  (* the return token and saved frame pointer live in simulated memory,
     where an overflowing local buffer can reach them *)
  Mem.write_int st.mem (fp - 8) 8 token;
  Mem.write_int st.mem (fp - 16) 8 saved_fp;
  (* control-data traffic is charged (cache + ret/call cost) but not
     counted as program loads/stores: Figure 1's metric counts only the
     program's own memory operations *)
  cache_access st (fp - 8);
  cache_access st (fp - 16);
  let nregs = max 1 f.Ir.fnregs in
  let iregs, fregs, isf =
    if nregs < reg_pool_buckets then
      match st.reg_pool.(nregs) with
      | (ir, fg, sf) :: tl ->
          st.reg_pool.(nregs) <- tl;
          for i = 0 to nregs - 1 do
            Array.unsafe_set ir i 0
          done;
          Bytes.fill sf 0 nregs '\000';
          (ir, fg, sf)
      | [] -> (Array.make nregs 0, Array.make nregs 0.0, Bytes.make nregs '\000')
    else (Array.make nregs 0, Array.make nregs 0.0, Bytes.make nregs '\000')
  in
  let nparams = Array.length fe.fe_params in
  let nargs = List.length args in
  if nargs <> nparams then
    raise
      (Trap
         (Runtime_error
            (Printf.sprintf "%s: called with %d args, expects %d" f.Ir.fname
               nargs nparams)));
  let rec set_args i = function
    | [] -> ()
    | v :: tl ->
        let r = fe.fe_params.(i) in
        (match v with
        | VI n -> iregs.(r) <- n
        | VF x ->
            Bytes.set isf r '\001';
            fregs.(r) <- x);
        set_args (i + 1) tl
  in
  set_args 0 args;
  let fr =
    {
      fr_func = f;
      fr_code = fe.fe_code;
      fr_iregs = iregs;
      fr_fregs = fregs;
      fr_isf = isf;
      fr_block = 0;
      fr_inst = 0;
      fr_fp = fp;
      fr_uid = uid;
      fr_ret_regs = ret_regs;
      fr_expected_token = token;
      fr_expected_savedfp = saved_fp;
      fr_resume = No_resume;
    }
  in
  st.sp <- new_sp;
  st.frames <- fr :: st.frames;
  st.n_frames <- st.n_frames + 1;
  if st.n_frames > st.stats.max_frames then
    st.stats.max_frames <- st.n_frames;
  (* baseline checkers track each slot as an object *)
  if Option.is_some st.cfg.checker then
    Array.iter
      (fun sl ->
        checker_event st
          (Ev_alloc { base = slot_addr fr sl; size = sl.Ir.sl_size; kind = AStack }))
      f.Ir.fslots

let describe_code_value st v =
  if L.is_function_addr v then begin
    let idx = L.func_index v in
    if idx >= 0 && idx < Array.length st.func_names then
      Some st.func_names.(idx)
    else None
  end
  else None

let pop_frame ld (rets : value list) : unit =
  let st = ld.st in
  charge st Cost.ret;
  match st.frames with
  | [] -> raise (Trap (Runtime_error "return with no frame"))
  | fr :: rest ->
      (* control-data integrity: read the return token and saved frame
         pointer back from simulated memory *)
      let token = Mem.read_int st.mem (fr.fr_fp - 8) 8 in
      let savedfp = Mem.read_int st.mem (fr.fr_fp - 16) 8 in
      cache_access st (fr.fr_fp - 8);
      cache_access st (fr.fr_fp - 16);
      if token <> fr.fr_expected_token then begin
        match describe_code_value st token with
        | Some f ->
            raise
              (Trap
                 (Hijack
                    (Printf.sprintf
                       "return address overwritten; control transfers to %s"
                       f)))
        | None ->
            raise
              (Trap
                 (Hijack
                    (Printf.sprintf "return address corrupted (0x%x)" token)))
      end;
      if savedfp <> fr.fr_expected_savedfp then
        raise
          (Trap
             (Hijack
                (Printf.sprintf "saved frame pointer corrupted (0x%x)" savedfp)));
      if Option.is_some st.cfg.checker then
        Array.iter
          (fun sl ->
            checker_event st
              (Ev_free
                 { base = slot_addr fr sl; size = sl.Ir.sl_size; kind = AStack }))
          fr.fr_func.Ir.fslots;
      (* drop this frame's setjmp contexts (collect first, then remove:
         no mutation under iteration, and no per-return table copy) *)
      if Hashtbl.length st.jmp_bufs > 0 then begin
        let dead =
          Hashtbl.fold
            (fun uid ((f : frame), _, _, _) acc ->
              if f.fr_uid = fr.fr_uid then uid :: acc else acc)
            st.jmp_bufs []
        in
        List.iter (fun uid -> Hashtbl.remove st.jmp_bufs uid) dead
      end;
      st.sp <- fr.fr_fp;
      st.frames <- rest;
      st.n_frames <- st.n_frames - 1;
      st.last_rets <- rets;
      (* the frame is now unreachable (its setjmp contexts are gone):
         recycle its register file *)
      (let nregs = Array.length fr.fr_iregs in
       if nregs < reg_pool_buckets then
         st.reg_pool.(nregs) <-
           (fr.fr_iregs, fr.fr_fregs, fr.fr_isf) :: st.reg_pool.(nregs));
      (match rest with
      | [] ->
          let code = match rets with VI v :: _ -> v | _ -> 0 in
          raise (Program_exit code)
      | caller :: _ -> assign_rets caller fr.fr_ret_regs rets)

(* ------------------------------------------------------------------ *)
(* setjmp / longjmp                                                     *)
(* ------------------------------------------------------------------ *)

let exec_setjmp ld ~checked (args : value list) (ret_regs : Ir.reg list) =
  let st = ld.st in
  let fr = List.hd st.frames in
  let buf, meta =
    match args with
    | VI b :: rest -> (b, rest)
    | _ -> raise (Trap (Runtime_error "setjmp: bad arguments"))
  in
  (if checked then
     match meta with
     | [ VI b; VI e ] ->
         sb_check st ~where:"setjmp" ~ptr:buf ~base:b ~bound:e ~size:64
     | _ -> raise (Trap (Runtime_error "setjmp: missing metadata")));
  let uid = st.next_uid in
  st.next_uid <- uid + 1;
  let ret_reg =
    match ret_regs with r :: _ -> r | [] -> -1
  in
  (* resume point: the PC was pre-incremented, so it already denotes the
     instruction after this setjmp call *)
  Hashtbl.replace st.jmp_bufs uid (fr, fr.fr_block, fr.fr_inst, ret_reg);
  let token = jmp_token_magic + uid in
  let pc = func_addr_of st fr.fr_func.Ir.fname in
  program_write st buf 8;
  Mem.write_int st.mem buf 8 token;
  program_write st (buf + 8) 8;
  Mem.write_int st.mem (buf + 8) 8 pc;
  program_write st (buf + 16) 8;
  Mem.write_int st.mem (buf + 16) 8 fr.fr_fp;
  if ret_reg >= 0 then reg_set_int fr ret_reg 0

let exec_longjmp ld ~checked (args : value list) =
  let st = ld.st in
  let buf, v, meta =
    match args with
    | VI b :: v :: rest -> (b, as_int v, rest)
    | _ -> raise (Trap (Runtime_error "longjmp: bad arguments"))
  in
  (if checked then
     match meta with
     | [ VI b; VI e ] ->
         sb_check st ~where:"longjmp" ~ptr:buf ~base:b ~bound:e ~size:64
     | _ -> raise (Trap (Runtime_error "longjmp: missing metadata")));
  program_read st buf 8;
  let token = Mem.read_int st.mem buf 8 in
  program_read st (buf + 8) 8;
  let pc = Mem.read_int st.mem (buf + 8) 8 in
  let hijack_diagnosis () =
    match (describe_code_value st pc, describe_code_value st token) with
    | Some f, _ | _, Some f ->
        raise
          (Trap
             (Hijack
                (Printf.sprintf
                   "longjmp buffer overwritten; control transfers to %s" f)))
    | None, None ->
        raise
          (Trap (Hijack (Printf.sprintf "longjmp buffer corrupted (0x%x)" token)))
  in
  let uid = token - jmp_token_magic in
  match Hashtbl.find_opt st.jmp_bufs uid with
  | None -> hijack_diagnosis ()
  | Some (target, blk, inst, ret_reg) ->
      (* the stored pc must still denote the frame's own function *)
      if pc <> func_addr_of st target.fr_func.Ir.fname then hijack_diagnosis ();
      (* the target frame must still be live *)
      if not (List.exists (fun f -> f.fr_uid = target.fr_uid) st.frames) then
        hijack_diagnosis ();
      (* unwind *)
      let rec unwind () =
        match st.frames with
        | fr :: rest when fr.fr_uid <> target.fr_uid ->
            if Option.is_some st.cfg.checker then
              Array.iter
                (fun sl ->
                  checker_event st
                    (Ev_free
                       {
                         base = slot_addr fr sl;
                         size = sl.Ir.sl_size;
                         kind = AStack;
                       }))
                fr.fr_func.Ir.fslots;
            (* the transform clears pointer-slot metadata before each
               return (section 5.2), but longjmp skips those returns —
               clear here, or frames reusing this stack space observe
               stale bounds.  Probe first so untouched slots don't
               materialize metadata pages. *)
            if checked && st.cfg.meta <> None then
              Array.iter
                (fun sl ->
                  List.iter
                    (fun off ->
                      let a = slot_addr fr sl + off in
                      let b, e = meta_load st a in
                      if b <> 0 || e <> 0 then meta_store st a 0 0)
                    sl.Ir.sl_ptr_offsets)
                fr.fr_func.Ir.fslots;
            st.frames <- rest;
            st.n_frames <- st.n_frames - 1;
            unwind ()
        | _ -> ()
      in
      unwind ();
      st.sp <- target.fr_fp - 16 - target.fr_func.Ir.fframe_size;
      target.fr_block <- blk;
      target.fr_inst <- inst;
      if ret_reg >= 0 then
        reg_set_int target ret_reg (if v = 0 then 1 else v)

(* ------------------------------------------------------------------ *)
(* Calls                                                                *)
(* ------------------------------------------------------------------ *)

(* forward reference, tied after the step loop is defined: builtins like
   qsort call back into interpreted code *)
let call_function_fwd :
    (loaded -> fentry -> value list -> value list) ref =
  ref (fun _ _ _ -> failwith "call_function not initialized")

(** qsort/bsearch: the comparator is a function pointer into interpreted
    code, invoked re-entrantly for every comparison.  Under SoftBound the
    wrapper checks the array extent and the function pointer, and hands
    the comparator per-element bounds. *)
let exec_sortsearch ld ~checked ~is_bsearch (argvals : value list)
    (rets : Ir.reg list) : unit =
  let st = ld.st in
  charge st Cost.libc_call;
  let argarr = Array.of_list argvals in
  let ai i = as_int argarr.(i) in
  let key, base, n, size, cmp, key_meta, base_meta, cmp_meta =
    if is_bsearch then
      ( ai 0, ai 1, ai 2, ai 3, ai 4,
        (if checked then (ai 5, ai 6) else (0, 0)),
        (if checked then (ai 7, ai 8) else (0, 0)),
        if checked then (ai 9, ai 10) else (0, 0) )
    else
      ( 0, ai 0, ai 1, ai 2, ai 3, (0, 0),
        (if checked then (ai 4, ai 5) else (0, 0)),
        if checked then (ai 6, ai 7) else (0, 0) )
  in
  if size < 0 || n < 0 then
    raise (Trap (Runtime_error "qsort/bsearch: bad element size or count"));
  if checked then begin
    (* whole-extent check, like the memcpy wrapper (section 5.2) *)
    if n > 0 && size > 0 then
      sb_check st
        ~where:(if is_bsearch then "_sb_bsearch" else "_sb_qsort")
        ~ptr:base ~base:(fst base_meta) ~bound:(snd base_meta)
        ~size:(n * size);
    if is_bsearch then
      sb_check st ~where:"_sb_bsearch" ~ptr:key ~base:(fst key_meta)
        ~bound:(snd key_meta) ~size;
    (* function-pointer encoding check *)
    if not (fst cmp_meta = cmp && snd cmp_meta = cmp && L.is_function_addr cmp)
    then
      raise
        (Trap
           (Bounds_violation
              { addr = cmp; base = fst cmp_meta; bound = snd cmp_meta;
                size = 0; where = "qsort/bsearch (function pointer check)" }))
  end;
  let cmp_name =
    match describe_code_value st cmp with
    | Some name -> name
    | None ->
        raise
          (Trap
             (Runtime_error "qsort/bsearch: comparator is not a function"))
  in
  (* resolve the comparator once; _sb_-convention targets (transformed
     module functions and wrapper builtins alike) receive per-element
     bounds after the two element pointers *)
  let cmp_func =
    match Hashtbl.find_opt ld.resolved cmp_name with
    | Some (RFunc fe) -> Some fe
    | _ -> None
  in
  let wants_meta =
    match cmp_func with
    | Some fe -> Array.length fe.fe_params = 6
    | None -> String.length cmp_name > 4 && String.sub cmp_name 0 4 = "_sb_"
  in
  let qsort_depth = st.n_frames in
  (* snapshot the caller's identity and program point: a longjmp out of
     the comparator either pops frames below us or redirects the caller *)
  let caller_snapshot () =
    match st.frames with
    | fr :: _ -> (fr.fr_uid, fr.fr_block, fr.fr_inst)
    | [] -> (-1, -1, -1)
  in
  let snap0 = caller_snapshot () in
  let invoke a b =
    let args =
      if wants_meta then
        [ VI a; VI b; VI a; VI (a + size); VI b; VI (b + size) ]
      else [ VI a; VI b ]
    in
    let out =
      match cmp_func with
      | Some fe -> (
          match ld.reenter with
          | Some f -> f ld fe args
          | None -> !call_function_fwd ld fe args)
      | None -> Builtins.dispatch st ~name:cmp_name ~args
    in
    (* a longjmp out of the comparator would leave this sort running
       against an unwound (or redirected) stack; C calls that undefined,
       the VM makes it a clean trap *)
    if st.n_frames < qsort_depth || caller_snapshot () <> snap0 then
      raise
        (Trap (Runtime_error "longjmp out of a qsort/bsearch comparator"));
    match out with VI r :: _ -> r | _ -> 0
  in
  let elem i = base + (i * size) in
  if n = 0 || size = 0 then begin
    (* degenerate calls are no-ops (bsearch finds nothing) *)
    if is_bsearch then begin
      let out = if checked then [ VI 0; VI 0; VI 0 ] else [ VI 0 ] in
      assign_rets (List.hd st.frames) rets out
    end
  end
  else if is_bsearch then begin
    let lo = ref 0 and hi = ref (n - 1) and found = ref 0 in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = invoke key (elem mid) in
      if c = 0 then begin
        found := elem mid;
        lo := !hi + 1
      end
      else if c < 0 then hi := mid - 1
      else lo := mid + 1
    done;
    let out =
      if checked then
        [ VI !found;
          VI (if !found = 0 then 0 else fst base_meta);
          VI (if !found = 0 then 0 else snd base_meta) ]
      else [ VI !found ]
    in
    assign_rets (List.hd st.frames) rets out
  end
  else begin
    (* in-place quicksort over simulated memory; element swaps are real
       byte traffic *)
    let tmp = Bytes.create size in
    let swap i j =
      if i <> j then begin
        Builtins.range_access st (elem i) size ~is_store:true;
        Builtins.range_access st (elem j) size ~is_store:true;
        for k = 0 to size - 1 do
          Bytes.set tmp k (Char.chr (Mem.read_byte st.mem (elem i + k)))
        done;
        Mem.blit st.mem ~src:(elem j) ~dst:(elem i) ~len:size;
        for k = 0 to size - 1 do
          Mem.write_byte st.mem (elem j + k) (Char.code (Bytes.get tmp k))
        done;
        (* moving the bytes must move the metadata too, or sorting an
           array of pointers leaves stale bounds behind (the memcpy
           wrapper has the same obligation, section 5.2) *)
        if checked then
          for k = 0 to (size / 8) - 1 do
            let a = elem i + (8 * k) and b = elem j + (8 * k) in
            let ab, ae = meta_load st a in
            let bb, be = meta_load st b in
            meta_store st a bb be;
            meta_store st b ab ae
          done;
        charge st (Cost.bulk_cost (3 * size))
      end
    in
    let rec sort lo hi =
      if lo < hi then begin
        (* middle pivot, moved to the end *)
        swap ((lo + hi) / 2) hi;
        let p = ref lo in
        for i = lo to hi - 1 do
          if invoke (elem i) (elem hi) < 0 then begin
            swap i !p;
            incr p
          end
        done;
        swap !p hi;
        sort lo (!p - 1);
        sort (!p + 1) hi
      end
    in
    sort 0 (n - 1)
  end

let rec exec_call ld (fr : frame) ~rets ~callee ~args : unit =
  let st = ld.st in
  let argvals = List.map (eval st fr) args in
  match callee with
  | Ir.Func name -> dispatch_call ld ~name ~argvals ~rets
  | op -> (
      let v = eval_int st fr op in
      match describe_code_value st v with
      | Some name -> dispatch_call ld ~name ~argvals ~rets
      | None ->
          raise
            (Trap
               (Runtime_error
                  (Printf.sprintf "indirect call to non-function address 0x%x"
                     v))))

and resolve ld name : resolution =
  match Hashtbl.find_opt ld.resolved name with
  | Some r -> r
  | None ->
      (* module functions were installed at load, so this name is a
         builtin, a special, or undefined; classify once and memoize *)
      let checked = String.length name > 4 && String.sub name 0 4 = "_sb_" in
      let base =
        if checked then String.sub name 4 (String.length name - 4) else name
      in
      let r =
        match base with
        | "setjmp" -> RSetjmp checked
        | "longjmp" -> RLongjmp checked
        | "qsort" -> RQsort checked
        | "bsearch" -> RBsearch checked
        | _ ->
            if Builtins.is_builtin_name name then RBuiltin checked
            else RUndefined checked
      in
      Hashtbl.replace ld.resolved name r;
      r

and dispatch_call ld ~name ~argvals ~rets : unit =
  dispatch_resolved ld ~name ~argvals ~rets (resolve ld name)

(** Dispatch a call whose target classification is already in hand — the
    threaded-code compiler resolves direct callees once at compile time
    and jumps straight here from the call closure. *)
and dispatch_resolved ld ~name ~argvals ~rets (r : resolution) : unit =
  let st = ld.st in
  match r with
  | RFunc fe ->
      (* the caller's saved position already points past the call *)
      push_frame ld fe argvals rets
  | special ->
      let checked =
        match special with
        | RSetjmp c | RLongjmp c | RQsort c | RBsearch c | RBuiltin c
        | RUndefined c ->
            c
        | RFunc _ -> false
      in
      let go () =
        match special with
        | RSetjmp _ -> exec_setjmp ld ~checked argvals rets
        | RLongjmp _ -> exec_longjmp ld ~checked argvals
        | RQsort _ -> exec_sortsearch ld ~checked ~is_bsearch:false argvals rets
        | RBsearch _ ->
            exec_sortsearch ld ~checked ~is_bsearch:true argvals rets
        | RBuiltin _ ->
            let out =
              try Builtins.dispatch st ~name ~args:argvals
              with Builtins.Exit_program n -> raise (Program_exit n)
            in
            assign_rets (List.hd st.frames) rets out
        | RFunc _ | RUndefined _ ->
            raise (Trap (Runtime_error ("call to undefined function " ^ name)))
      in
      if checked && st.cfg.obs_enabled then begin
        (* the context charges the wrapper's site-0 checks and metadata
           operations to it by name: what the checked call costs beyond
           the same builtin unprotected *)
        let prev = Obs.enter_wrapper st.obs name in
        Fun.protect
          ~finally:(fun () ->
            Obs.restore_wrapper st.obs prev;
            if Obs.trace_on st.obs then
              Obs.trace_event st.obs (Obs.E_wrapper { name }))
          go
      end
      else go ()

(* ------------------------------------------------------------------ *)
(* The step loop                                                        *)
(* ------------------------------------------------------------------ *)

(** Signature hash of a callable, for the dynamic function-pointer
    signature check.  Module functions hash their (transformed) parameter
    and return kinds; builtin wrappers hash the extended wrapper
    signature derived from the C prototype. *)
let callee_sig_hash_uncached ld (name : string) : int option =
  let st = ld.st in
  match Hashtbl.find_opt ld.resolved name with
  | Some (RFunc fe) ->
      let f = fe.fe_func in
      Some
        (Ir.sig_hash
           {
             Ir.cargs = List.map snd f.Ir.fparams;
             crets = f.Ir.frets;
             cvariadic = f.Ir.fvariadic;
           })
  | _ ->
      let checked = String.length name > 4 && String.sub name 0 4 = "_sb_" in
      let base =
        if checked then String.sub name 4 (String.length name - 4) else name
      in
      let base =
        match base with
        | "free_withmeta" -> "free"
        | "memcpy_nometa" -> "memcpy"
        | "memmove_nometa" -> "memmove"
        | b -> b
      in
      (match Hashtbl.find_opt st.builtins base with
      | None -> None
      | Some sg ->
          let dummy = Cminus.Ctypes.create_env () in
          let ity_of t =
            match Cminus.Ctypes.resolve dummy t with
            | Cminus.Ctypes.Tptr _ | Cminus.Ctypes.Tarray _
            | Cminus.Ctypes.Tfunc _ ->
                Ir.P
            | Cminus.Ctypes.Tfloat Cminus.Ctypes.FFloat -> Ir.F32
            | Cminus.Ctypes.Tfloat Cminus.Ctypes.FDouble -> Ir.F64
            | _ -> Ir.I64
          in
          let cargs = List.map ity_of sg.Cminus.Ctypes.params in
          let cargs =
            if sg.Cminus.Ctypes.variadic then cargs @ [ Ir.P; Ir.I64 ]
            else cargs
          in
          let cargs =
            if checked then
              cargs
              @ List.concat_map
                  (fun t -> if t = Ir.P then [ Ir.P; Ir.P ] else [])
                  cargs
            else cargs
          in
          let crets =
            match Cminus.Ctypes.resolve dummy sg.Cminus.Ctypes.ret with
            | Cminus.Ctypes.Tvoid -> []
            | t -> (
                match ity_of t with
                | Ir.P when checked -> [ Ir.P; Ir.P; Ir.P ]
                | t -> [ t ])
          in
          Some
            (Ir.sig_hash
               { Ir.cargs; crets; cvariadic = sg.Cminus.Ctypes.variadic }))

let callee_sig_hash ld (name : string) : int option =
  match Hashtbl.find_opt ld.sig_hashes name with
  | Some h -> h
  | None ->
      let h = callee_sig_hash_uncached ld name in
      Hashtbl.replace ld.sig_hashes name h;
      h

(** The [CheckFptr] dynamic check after operand evaluation, shared by
    both engines: function-pointer encoding check plus the optional
    signature-hash comparison.  [cy0] is the cycle count before the
    already-charged [Cost.check], for obs attribution. *)
let check_fptr ld ~fname ~site ~expected_sig ~cy0 pv bv ev : unit =
  let st = ld.st in
  let ok_addr = pv = bv && pv = ev && L.is_function_addr pv in
  (* the signature check only runs once the address check passed *)
  let sig_mismatch =
    if not ok_addr then None
    else
      match expected_sig with
      | None -> None
      | Some h -> (
          charge st Cost.check;
          match describe_code_value st pv with
          | Some name -> (
              match callee_sig_hash ld name with
              | Some h' when h' <> h -> Some name
              | _ -> None)
          | None -> None)
  in
  if st.cfg.obs_enabled then begin
    Obs.record_op st.obs Obs.KCheckFptr ~site ~cycles:(st.stats.cycles - cy0);
    if Obs.trace_on st.obs then
      Obs.trace_event st.obs
        (Obs.E_fptr_check { site; addr = pv; ok = ok_addr && sig_mismatch = None })
  end;
  if not ok_addr then
    raise
      (Trap
         (Bounds_violation
            {
              addr = pv;
              base = bv;
              bound = ev;
              size = 0;
              where = fname ^ " (function pointer check)";
            }));
  match sig_mismatch with
  | None -> ()
  | Some name ->
      raise
        (Trap
           (Bounds_violation
              {
                addr = pv;
                base = bv;
                bound = ev;
                size = 0;
                where =
                  fname ^ " (function pointer signature mismatch: " ^ name
                  ^ ")";
              }))

let exec_inst ld (fr : frame) (inst : Ir.inst) : unit =
  let st = ld.st in
  match inst with
  | Ir.Mov (r, _, o) ->
      charge st Cost.basic;
      reg_set fr r (eval st fr o)
  | Ir.Bin (r, op, t, a, b) ->
      reg_set fr r (exec_bin st op t (eval st fr a) (eval st fr b))
  | Ir.Cmp (r, op, t, a, b) ->
      reg_set fr r (exec_cmp st op t (eval st fr a) (eval st fr b))
  | Ir.Cast (r, to_, from_, o) ->
      reg_set fr r (exec_cast st to_ from_ (eval st fr o))
  | Ir.Load (r, t, a) -> reg_set fr r (do_load st t (eval_int st fr a))
  | Ir.Store (t, a, v) -> do_store st t (eval_int st fr a) (eval st fr v)
  | Ir.Gep (r, base, off, _) ->
      charge st Cost.basic;
      let b = eval_int st fr base in
      let d = b + eval_int st fr off in
      (match st.cfg.checker with
      | Some _ -> checker_event st (Ev_ptr_arith { src = b; dst = d })
      | None -> ());
      reg_set_int fr r d
  | Ir.Slotaddr (r, s) ->
      charge st Cost.alloca;
      reg_set_int fr r (slot_addr fr fr.fr_func.Ir.fslots.(s))
  | Ir.Call { rets; callee; args; _ } ->
      (* the step loop advances the PC before executing, so the caller's
         stored position already points past this call *)
      exec_call ld fr ~rets ~callee ~args
  | Ir.SetBoundMark _ -> ()
  | Ir.Check (p, b, e, size, site) ->
      sb_check st ~site ~where:fr.fr_func.Ir.fname ~ptr:(eval_int st fr p)
        ~base:(eval_int st fr b) ~bound:(eval_int st fr e) ~size
  | Ir.CheckFptr (p, b, e, expected_sig, site) ->
      st.stats.checks <- st.stats.checks + 1;
      let cy0 = st.stats.cycles in
      charge st Cost.check;
      let pv = eval_int st fr p in
      let bv = eval_int st fr b in
      let ev = eval_int st fr e in
      check_fptr ld ~fname:fr.fr_func.Ir.fname ~site ~expected_sig ~cy0 pv bv
        ev
  | Ir.MetaLoad (rb, re, a, site) ->
      let b, e = meta_load st ~site (eval_int st fr a) in
      reg_set_int fr rb b;
      reg_set_int fr re e
  | Ir.MetaStore (a, b, e, site) ->
      meta_store st ~site (eval_int st fr a) (eval_int st fr b)
        (eval_int st fr e)
  | Ir.CheckSpan sp ->
      sb_check_span st ~site:sp.Ir.sp_site ~sites:sp.Ir.sp_sites
        ~where:fr.fr_func.Ir.fname
        ~first:(eval_int st fr sp.Ir.sp_first)
        ~count:(eval_int st fr sp.Ir.sp_count)
        ~stride:sp.Ir.sp_stride ~width:sp.Ir.sp_width
        ~base:(eval_int st fr sp.Ir.sp_base)
        ~bound:(eval_int st fr sp.Ir.sp_bound)

let exec_term ld (fr : frame) (term : Ir.terminator) : unit =
  let st = ld.st in
  match term with
  | Ir.TRet ops ->
      let vals = List.map (eval st fr) ops in
      pop_frame ld vals
  | Ir.TJmp t ->
      charge st Cost.basic;
      fr.fr_block <- t;
      fr.fr_inst <- 0
  | Ir.TBr (c, t1, t2) ->
      charge st Cost.basic;
      fr.fr_block <- (if eval_int st fr c <> 0 then t1 else t2);
      fr.fr_inst <- 0
  | Ir.TSwitch (v, cases, default) ->
      charge st (Cost.basic * 2);
      let x = eval_int st fr v in
      (* monomorphic scan — [List.assoc_opt] is a polymorphic-compare C
         call per executed case *)
      let rec find = function
        | [] -> default
        | (k, t) :: tl -> if (k : int) = x then t else find tl
      in
      fr.fr_block <- find cases;
      fr.fr_inst <- 0
  | Ir.TUnreachable ->
      raise (Trap (Runtime_error "unreachable executed (missing return?)"))

(** Execute one instruction (or terminator) of the top frame; [false]
    when no frames remain. *)
let step_once ld : bool =
  let st = ld.st in
  match st.frames with
  | [] -> false
  | fr :: _ ->
      st.steps <- st.steps + 1;
      if st.steps > st.cfg.max_steps then raise (Trap Step_limit);
      (match st.cfg.poll with
      | Some p when st.steps land poll_mask = 0 -> p ()
      | _ -> ());
      st.stats.insts <- st.stats.insts + 1;
      let insts = fr.fr_code.(fr.fr_block) in
      if fr.fr_inst < Array.length insts then begin
        (* pre-increment the PC, like real hardware: calls and longjmp
           then resume at the right place with no special-casing *)
        let i = insts.(fr.fr_inst) in
        fr.fr_inst <- fr.fr_inst + 1;
        exec_inst ld fr i
      end
      else exec_term ld fr fr.fr_func.Ir.fblocks.(fr.fr_block).Ir.term;
      true

(** Main execution loop.  Equivalent to [while step_once ld do () done]
    but with the top frame's instruction array hoisted: the inner loop
    runs the current basic block straight-line and drops back to the
    dispatcher on any control transfer (a call pushes a frame, a
    terminator rewrites [fr_block], a return pops), so the hoisted
    [insts]/[n] can never go stale.  Step accounting is performed by the
    same counters in the same order as {!step_once}. *)
let run_until_done ld : int =
  let st = ld.st in
  let max_steps = st.cfg.max_steps in
  let poll = st.cfg.poll in
  try
    let live = ref true in
    while !live do
      match st.frames with
      | [] -> live := false
      | fr :: _ ->
          let insts = Array.unsafe_get fr.fr_code fr.fr_block in
          let n = Array.length insts in
          let straight = ref true in
          while !straight do
            st.steps <- st.steps + 1;
            if st.steps > max_steps then raise (Trap Step_limit);
            (match poll with
            | Some p when st.steps land poll_mask = 0 -> p ()
            | _ -> ());
            st.stats.insts <- st.stats.insts + 1;
            let k = fr.fr_inst in
            if k < n then begin
              let i = Array.unsafe_get insts k in
              fr.fr_inst <- k + 1;
              (match i with Ir.Call _ -> straight := false | _ -> ());
              exec_inst ld fr i
            end
            else begin
              straight := false;
              exec_term ld fr
                (Array.unsafe_get fr.fr_func.Ir.fblocks fr.fr_block).Ir.term
            end
          done
    done;
    0
  with Program_exit n -> n

(** Re-entrant call from inside a builtin (e.g. a qsort comparator):
    push a frame for [f] and run until it returns, yielding its return
    values.  Traps and [Program_exit] propagate. *)
let call_function ld (fe : fentry) (args : value list) : value list =
  let st = ld.st in
  let depth = st.n_frames in
  push_frame ld fe args [];
  while st.n_frames > depth && step_once ld do
    ()
  done;
  st.last_rets

let () = call_function_fwd := call_function

(** Boundary call into a loaded module whose [main] already finished
    (the adversarial harness's calls into exported protected
    functions): like {!call_function}, except a return that empties the
    frame stack is an ordinary return, not program exit. *)
let call_boundary ld (fe : fentry) (args : value list) : value list =
  try call_function ld fe args with Program_exit _ -> ld.st.last_rets

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

(** Set up argv strings in the heap; returns (argc, argv, argv_bounds). *)
let setup_argv ld (argv : string list) : int * int * (int * int) =
  let st = ld.st in
  let n = List.length argv in
  let arr =
    match Machine.Heap.malloc st.heap (8 * max 1 n) with
    | Some a -> a
    | None -> raise (Trap Out_of_memory)
  in
  checker_event st (Ev_alloc { base = arr; size = 8 * max 1 n; kind = AHeap });
  List.iteri
    (fun i s ->
      let p =
        match Machine.Heap.malloc st.heap (String.length s + 1) with
        | Some p -> p
        | None -> raise (Trap Out_of_memory)
      in
      checker_event st
        (Ev_alloc { base = p; size = String.length s + 1; kind = AHeap });
      Mem.write_cstring st.mem p s;
      Mem.write_int st.mem (arr + (8 * i)) 8 p;
      (* transformed programs find argv[i] metadata in the table *)
      if st.cfg.meta <> None then
        meta_store st (arr + (8 * i)) p (p + String.length s + 1))
    argv;
  (n, arr, (arr, arr + (8 * n)))

type result = {
  outcome : outcome;
  stdout_text : string;
  stats : stats;
  cache_hits : int;
  cache_misses : int;
  resident_bytes : int;
  heap_peak : int;
  heap_live : int;
      (** bytes still allocated at exit — instrumentation must not
          change the program's allocation behavior, so differential
          runs compare this across configurations *)
  heap_allocs : int;
      (** lifetime heap allocation count — the per-object term of the
          related-work schemes' analytic metadata-footprint models *)
  obs : Obs.t;
      (** per-site observability counters and (optionally) the event
          ring; a disabled collector when the run had [obs_enabled]
          off *)
}

let finish ld outcome : result =
  let st = ld.st in
  (match outcome with
  | Trapped t when Obs.trace_on st.obs ->
      Obs.trace_event st.obs (Obs.E_trap { detail = string_of_trap t })
  | _ -> ());
  {
    outcome;
    stdout_text = Buffer.contents st.out;
    stats = st.stats;
    cache_hits = Machine.Cache.hits st.cache;
    cache_misses = Machine.Cache.misses st.cache;
    resident_bytes = Mem.resident_bytes st.mem;
    heap_peak = Machine.Heap.peak_bytes st.heap;
    heap_live = Machine.Heap.live_bytes st.heap;
    heap_allocs = Machine.Heap.total_allocs st.heap;
    obs = st.obs;
  }

(** Run the loaded module's global initializer and [main], returning the
    outcome.  Unlike {!run} this leaves the state open afterwards: the
    adversarial harness keeps driving boundary calls ({!call_function},
    builtin dispatches) against the very same [loaded] value. *)
let run_main ?(exec = run_until_done) ld : outcome =
  try
    (* transformed modules carry a synthetic global-metadata initializer *)
    (match Hashtbl.find_opt ld.resolved "__sb_global_init" with
    | Some (RFunc fe) ->
        push_frame ld fe [] [];
        ignore (exec ld)
    | _ -> ());
    let module_func name =
      match Hashtbl.find_opt ld.resolved name with
      | Some (RFunc fe) -> Some fe
      | _ -> None
    in
    let main =
      match module_func "_sb_main" with
      | Some fe -> fe
      | None -> (
          match module_func "main" with
          | Some fe -> fe
          | None -> raise (Trap (Runtime_error "no main function")))
    in
    let nparams = Array.length main.fe_params in
    let args =
      if nparams = 0 then []
      else begin
        let argc, argv, (ab, ae) =
          setup_argv ld ("prog" :: ld.st.cfg.argv)
        in
        if nparams >= 4 then
          (* transformed main: (argc, argv, argv_base, argv_bound) *)
          [ VI argc; VI argv; VI ab; VI ae ]
        else [ VI argc; VI argv ]
      end
    in
    push_frame ld main args [];
    let code = exec ld in
    Exit code
  with
  | Trap t -> Trapped t
  | Mem.Segfault a -> Trapped (Segfault a)
  | Program_exit n -> Exit n

(** Load and run a module to completion. *)
let run ?(cfg = default_config) (m : Ir.modul) : result =
  let ld = create ~cfg m in
  finish ld (run_main ld)
