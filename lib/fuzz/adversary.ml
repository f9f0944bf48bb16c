(* Adversarial robust-safety harness.

   The differential fuzzer ({!Fuzz}/{!Oracle}) cross-checks *closed*,
   safe-by-construction programs.  This harness checks the stronger,
   open-world property the ROADMAP calls robust safety (SecurePtrs /
   CheckedCBox, arXiv 2302.01811; the Checked C blame theorem, arXiv
   2201.13394): a SoftBound-protected MiniC component is linked with an
   *attacker* that runs unchecked, and no attacker action may induce a
   trap-free corruption of the protected component's heap or metadata,
   nor leak its secrets.  Every attack is classified:

   - [Caught]    — the action trapped at the checked boundary;
   - [Confined]  — the action completed, protected state is intact, and
                   the attacker's observations are secret-independent;
   - [Escaped]   — trap-free corruption, a secret-dependent observation
                   (a leak), or a trap raised *inside* protected code on
                   its own well-formed data (a blame violation).

   Attacker model.  The SoftBound transform renames every compiled
   function [_sb_*] and checks it fully, so a compiled "unchecked
   module" does not exist in this pipeline; instead the attacker is
   modeled directly at machine level, which over-approximates anything
   separate compilation could produce.  The attacker:

   - owns heap memory it allocated itself (an arena granule recycled
     from a block the protected component freed — giving it a buffer
     physically adjacent to protected data — plus a scratch buffer) and
     may write those bytes arbitrarily, including the allocator's guard
     gap beyond its bound (modeling in-module overflows that SoftBound
     deliberately does not police in unchecked code);
   - may aim raw stores at the metadata facility's backing region; the
     machine's segment isolation (metadata lives outside every
     program-valid segment, {!Machine.Layout}) must confine them;
   - may call checked wrappers and exported protected functions at the
     boundary.  Pointer arguments carry the metadata a correct interface
     shim would attach — the true bounds of the object the attacker
     *claims* to pass.  Forged-pointer attacks pass a protected address
     under the attacker's own capability; the attacker cannot forge the
     capability itself (metadata is produced by trusted code — the
     paper's section 5.2 wrapper discipline).

   The leak oracle is twin-run non-interference: every scenario runs
   twice with different protected secrets, and the attacker's
   per-action observations (return values, trap detail, output) must be
   identical.  The integrity oracle snapshots the protected heap via
   {!Interp.Snapshot} and additionally checks metadata *coherence*: each
   protected pointer slot's facility entry must stay the entry of the
   block the slot's value points into — which is exactly the invariant
   a metadata-aware memmove must preserve. *)

module St = Interp.State
module Vm = Interp.Vm
module Snapshot = Interp.Snapshot
module Builtins = Interp.Builtins
module Mem = Machine.Memory
module Heap = Machine.Heap
module L = Machine.Layout

(* ------------------------------------------------------------------ *)
(* Scenario space                                                       *)
(* ------------------------------------------------------------------ *)

type params = {
  facility : St.meta_facility;  (** [Shadow_space] or [Hash_table] *)
  ht_init : int;  (** initial hash-table entries (exercises resize) *)
  hole : int;  (** freed-then-recycled granule size, multiple of 16 *)
  sec : int;  (** protected secret buffer size *)
  nslots : int;  (** protected pointer-array length *)
  bsz : int;  (** size of each block the array points to *)
}

type target = T_secret | T_parr | T_block of int | T_meta

type action =
  | A_fill of int list
      (** repaint arena + guard gap nonzero, then punch NULs at offsets *)
  | A_strlen
  | A_strcpy
  | A_strcmp
  | A_strncmp of int
  | A_strchr of int
  | A_strstr
  | A_strdup
  | A_puts
  | A_atoi
  | A_memmove of int * int * int  (** overlapping move inside the arena *)
  | A_forge_write of target
  | A_forge_free of target
  | A_meta_write  (** raw store aimed at the metadata backing region *)
  | A_shift of int  (** boundary call: protected overlapping memmove *)
  | A_rotget of int  (** boundary call: protected read API *)

type scenario = { name : string; sp : params; acts : action list }

let class_of = function
  | A_fill _ -> "raw"
  | A_strlen | A_strcpy | A_strcmp | A_strchr _ | A_strstr | A_strdup
  | A_puts | A_atoi ->
      "unterm-scan"
  | A_strncmp _ -> "limit-edge"
  | A_memmove _ | A_shift _ -> "memmove-overlap"
  | A_rotget _ -> "api"
  | A_forge_write _ | A_forge_free _ -> "forge"
  | A_meta_write -> "meta-store"

let classes =
  [ "raw"; "unterm-scan"; "limit-edge"; "memmove-overlap"; "api"; "forge";
    "meta-store" ]

let target_name = function
  | T_secret -> "secret"
  | T_parr -> "parr"
  | T_block i -> Printf.sprintf "block%d" i
  | T_meta -> "meta"

let label_of = function
  | A_fill [] -> "fill"
  | A_fill ks ->
      "fill/nul@" ^ String.concat "," (List.map string_of_int ks)
  | A_strlen -> "strlen"
  | A_strcpy -> "strcpy"
  | A_strcmp -> "strcmp"
  | A_strncmp n -> Printf.sprintf "strncmp[n=%d]" n
  | A_strchr c -> Printf.sprintf "strchr[%d]" c
  | A_strstr -> "strstr"
  | A_strdup -> "strdup"
  | A_puts -> "puts"
  | A_atoi -> "atoi"
  | A_memmove (d, s, l) -> Printf.sprintf "memmove[+%d,+%d,%d]" d s l
  | A_forge_write t -> "forge-write:" ^ target_name t
  | A_forge_free t -> "forge-free:" ^ target_name t
  | A_meta_write -> "meta-write"
  | A_shift k -> Printf.sprintf "shift[%d]" k
  | A_rotget i -> Printf.sprintf "rotget[%d]" i

(* ------------------------------------------------------------------ *)
(* The protected component                                              *)
(* ------------------------------------------------------------------ *)

(* A component with a secret buffer, a pointer array, and two exported
   entry points.  Allocation order matters: the hole granule comes
   first and is freed at the end of [main], so the attacker's first
   malloc of the same size recycles it and lands directly below the
   secret (one 16-byte allocator guard gap apart). *)
let protected_source (p : params) : string =
  let n = p.nslots in
  Printf.sprintf
    "long **parr;\n\
     char *psec;\n\
     char *phole;\n\
     long shift(long k) {\n\
    \  if (k < 0) { k = 0 - k; }\n\
    \  k = (k %% %d) + 1;\n\
    \  memmove(parr + k, parr, (%d - k) * 8);\n\
    \  return k;\n\
     }\n\
     long rotget(long i) {\n\
    \  if (i < 0) { i = 0 - i; }\n\
    \  i = i %% %d;\n\
    \  long *q = parr[i];\n\
    \  if (q == 0) { return 0 - 1; }\n\
    \  return q[0];\n\
     }\n\
     int main(void) {\n\
    \  phole = (char *)malloc(%d);\n\
    \  psec = (char *)malloc(%d);\n\
    \  sim_recv(psec, %d);\n\
    \  parr = (long **)malloc(%d);\n\
    \  long i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
    \    long *q = (long *)malloc(%d);\n\
    \    q[0] = i * 3 + 1;\n\
    \    parr[i] = q;\n\
    \  }\n\
    \  free(phole);\n\
    \  return 0;\n\
     }\n"
    (n - 1) n n p.hole p.sec p.sec (8 * n) n p.bsz

(* compile/instrument memoization: the parameter space is tiny, the
   campaign is not.  Guarded by a mutex — campaigns fan out over
   domains. *)
let memo_lock = Mutex.create ()
let compiled : (string, Sbir.Ir.modul) Hashtbl.t = Hashtbl.create 16
let instrumented : (string * St.meta_facility, Sbir.Ir.modul) Hashtbl.t =
  Hashtbl.create 16

let memo tbl key f =
  Mutex.lock memo_lock;
  let hit = Hashtbl.find_opt tbl key in
  Mutex.unlock memo_lock;
  match hit with
  | Some v -> v
  | None ->
      let v = f () in
      Mutex.lock memo_lock;
      Hashtbl.replace tbl key v;
      Mutex.unlock memo_lock;
      v

let instrumented_module (p : params) : Sbir.Ir.modul =
  let src = protected_source p in
  let m = memo compiled src (fun () -> Softbound.compile src) in
  memo instrumented (src, p.facility) (fun () ->
      Softbound.instrument
        ~opts:{ Softbound.Config.default with facility = p.facility }
        m)

(* ------------------------------------------------------------------ *)
(* One run of a scenario                                                *)
(* ------------------------------------------------------------------ *)

exception Skip_scenario of string

let gap = 16 (* Machine.Heap's inter-block guard gap *)

type ctx = {
  ld : Vm.loaded;
  st : St.t;
  p : params;
  arena : int;  (** recycled hole granule, physically below the secret *)
  scratch : int;  (** second attacker buffer *)
  psec : int;
  parr : int;
  blocks : int array;  (** original slot pointers, in slot order *)
  block_meta : (int, int * int) Hashtbl.t;  (** block addr -> its bounds *)
  model : int array;  (** expected slot values (updated on [A_shift]) *)
  sec_img : string;
}

let scratch_sz = 96
let needle_off = 80

let global_value ctx name =
  match Hashtbl.find_opt ctx.st.St.globals name with
  | Some (a, _) -> Mem.read_int ctx.st.St.mem a 8
  | None -> raise (Skip_scenario ("missing protected global " ^ name))

let setup (p : params) ~(secret : string) : ctx =
  let cfg =
    {
      St.default_config with
      St.meta = Some p.facility;
      store_only = false;
      inputs = [ secret ];
      ht_entries_init =
        (if p.facility = St.Hash_table then p.ht_init
         else St.default_config.St.ht_entries_init);
      max_steps = 50_000_000;
    }
  in
  let ld = Vm.create ~cfg (instrumented_module p) in
  (match Vm.run_main ld with
  | St.Exit 0 -> ()
  | o -> raise (Skip_scenario ("protected main: " ^ St.string_of_outcome o)));
  let st = ld.Vm.st in
  let dummy =
    {
      ld;
      st;
      p;
      arena = 0;
      scratch = 0;
      psec = 0;
      parr = 0;
      blocks = [||];
      block_meta = Hashtbl.create 8;
      model = [||];
      sec_img = "";
    }
  in
  let psec = global_value dummy "psec" and parr = global_value dummy "parr" in
  let arena =
    match Heap.malloc st.St.heap p.hole with
    | Some a -> a
    | None -> raise (Skip_scenario "attacker arena alloc failed")
  in
  let scratch =
    match Heap.malloc st.St.heap scratch_sz with
    | Some a -> a
    | None -> raise (Skip_scenario "attacker scratch alloc failed")
  in
  (* the attack geometry the generator relies on: the arena is the
     recycled hole, sitting exactly one guard gap below the secret *)
  if arena + p.hole + gap <> psec then
    raise
      (Skip_scenario
         (Printf.sprintf "layout: arena=0x%x hole=%d psec=0x%x" arena p.hole
            psec));
  (* the attacker's needle / reference string *)
  Mem.write_byte st.St.mem (scratch + needle_off) (Char.code 'Z');
  Mem.write_byte st.St.mem (scratch + needle_off + 1) (Char.code 'Q');
  Mem.write_byte st.St.mem (scratch + needle_off + 2) 0;
  let blocks =
    Array.init p.nslots (fun i -> Mem.read_int st.St.mem (parr + (8 * i)) 8)
  in
  let block_meta = Hashtbl.create 16 in
  Array.iteri
    (fun i b ->
      ignore i;
      Hashtbl.replace block_meta b (b, b + p.bsz))
    blocks;
  {
    ld;
    st;
    p;
    arena;
    scratch;
    psec;
    parr;
    blocks;
    block_meta;
    model = Array.copy blocks;
    sec_img = Snapshot.read_bytes st psec p.sec;
  }

(** Trap-free corruption check: secret bytes, live protected blocks,
    slot values against the model, and metadata coherence of every
    slot.  [None] = intact. *)
let integrity (ctx : ctx) : string option =
  let st = ctx.st in
  if Snapshot.read_bytes st ctx.psec ctx.p.sec <> ctx.sec_img then
    Some "secret bytes corrupted without a trap"
  else if Heap.block_size st.St.heap ctx.psec <> Some ctx.p.sec then
    Some "secret block retired without a trap"
  else if Heap.block_size st.St.heap ctx.parr <> Some (8 * ctx.p.nslots) then
    Some "pointer-array block retired without a trap"
  else
    let bad = ref None in
    Array.iteri
      (fun i b ->
        if !bad = None && Heap.block_size st.St.heap b <> Some ctx.p.bsz then
          bad := Some (Printf.sprintf "block %d retired without a trap" i))
      ctx.blocks;
    Array.iteri
      (fun i expected ->
        if !bad = None then begin
          let a = ctx.parr + (8 * i) in
          let v = Mem.read_int st.St.mem a 8 in
          if v <> expected then
            bad :=
              Some
                (Printf.sprintf "slot %d: value 0x%x, expected 0x%x" i v
                   expected)
          else if v <> 0 then
            let m = St.meta_peek st a in
            match Hashtbl.find_opt ctx.block_meta v with
            | Some bm when bm = m -> ()
            | Some (bb, be) ->
                let mb, me = m in
                bad :=
                  Some
                    (Printf.sprintf
                       "slot %d: metadata (0x%x,0x%x) incoherent with value \
                        0x%x (block bounds (0x%x,0x%x))"
                       i mb me v bb be)
            | None ->
                bad := Some (Printf.sprintf "slot %d: foreign pointer 0x%x" i v)
          end)
      ctx.model;
    !bad

(* --- boundary-call helpers --- *)

let vi v = St.VI v
let arena_meta ctx = (ctx.arena, ctx.arena + ctx.p.hole)
let scratch_meta ctx = (ctx.scratch, ctx.scratch + scratch_sz)

(** Call a checked wrapper the way a boundary shim would: plain args
    first, then the metadata pair of each pointer argument in order. *)
let wrapper ctx name (args : (int * (int * int) option) list) : St.value list =
  let plain = List.map (fun (v, _) -> vi v) args in
  let metas =
    List.concat_map
      (fun (_, m) -> match m with None -> [] | Some (b, e) -> [ vi b; vi e ])
      args
  in
  Builtins.dispatch ctx.st ~name:("_sb_" ^ name) ~args:(plain @ metas)

let call_protected ctx name (args : St.value list) : St.value list =
  match Hashtbl.find_opt ctx.ld.Vm.resolved ("_sb_" ^ name) with
  | Some (Vm.RFunc fe) -> Vm.call_boundary ctx.ld fe args
  | _ -> raise (Skip_scenario ("protected function missing: _sb_" ^ name))

let show_rets (rets : St.value list) : string =
  String.concat ","
    (List.map
       (function St.VI v -> string_of_int v | St.VF f -> string_of_float f)
       rets)

(* where the facility keeps metadata: the start of the hash table, or
   the protected pointer array's shadow *)
let meta_addr ctx =
  if ctx.p.facility = St.Hash_table then L.hashtable_base
  else L.shadow_addr ctx.parr

(** Execute one action, returning the attacker-visible observation.
    Raises [St.Trap] / [Mem.Segfault] when the machine stops it. *)
let perform (ctx : ctx) (a : action) : string =
  let st = ctx.st in
  let am = Some (arena_meta ctx) and sm = Some (scratch_meta ctx) in
  let needle = ctx.scratch + needle_off in
  let nm = Some (scratch_meta ctx) in
  let target_addr = function
    | T_secret -> ctx.psec
    | T_parr -> ctx.parr
    | T_block i -> ctx.blocks.(i mod ctx.p.nslots)
    | T_meta -> meta_addr ctx
  in
  match a with
  | A_fill nuls ->
      (* raw writes confined to the attacker's own granule plus the
         allocator guard gap beyond it *)
      for i = 0 to ctx.p.hole + gap - 1 do
        Mem.write_byte st.St.mem (ctx.arena + i) 0x41
      done;
      List.iter
        (fun k ->
          Mem.write_byte st.St.mem (ctx.arena + (k mod (ctx.p.hole + gap))) 0)
        nuls;
      "filled"
  | A_strlen -> show_rets (wrapper ctx "strlen" [ (ctx.arena, am) ])
  | A_strcpy ->
      show_rets
        (wrapper ctx "strcpy" [ (ctx.scratch, sm); (ctx.arena, am) ])
  | A_strcmp ->
      show_rets (wrapper ctx "strcmp" [ (ctx.arena, am); (needle, nm) ])
  | A_strncmp n ->
      show_rets
        (wrapper ctx "strncmp"
           [ (ctx.arena, am); (needle, nm); (n, None) ])
  | A_strchr c ->
      show_rets (wrapper ctx "strchr" [ (ctx.arena, am); (c, None) ])
  | A_strstr ->
      show_rets (wrapper ctx "strstr" [ (ctx.arena, am); (needle, nm) ])
  | A_strdup ->
      (* observation is success/failure, not the fresh address (heap
         addresses are identical across twins anyway, but the secret
         must not decide whether the call survives) *)
      let rets = wrapper ctx "strdup" [ (ctx.arena, am) ] in
      (match rets with
      | St.VI 0 :: _ -> "dup:null"
      | _ -> "dup:ok")
  | A_puts ->
      let before = Buffer.length st.St.out in
      let rets = wrapper ctx "puts" [ (ctx.arena, am) ] in
      let written =
        Buffer.sub st.St.out before (Buffer.length st.St.out - before)
      in
      show_rets rets ^ ":" ^ written
  | A_atoi -> show_rets (wrapper ctx "atoi" [ (ctx.arena, am) ])
  | A_memmove (d, s, l) ->
      let cap = ctx.p.hole in
      let d = d mod cap and s = s mod cap in
      let l = min l (cap - max d s) in
      show_rets
        (wrapper ctx "memmove"
           [ (ctx.arena + d, am); (ctx.arena + s, am); (max l 0, None) ])
  | A_forge_write t ->
      show_rets
        (wrapper ctx "memset" [ (target_addr t, am); (0x5A, None); (8, None) ])
  | A_forge_free t ->
      show_rets (wrapper ctx "free" [ (target_addr t, am) ])
  | A_meta_write ->
      (* what a compiled store executes: segment validity, then the
         write — segment isolation must segfault it *)
      let addr = meta_addr ctx in
      Mem.check_program_access st.St.mem addr 8;
      Mem.write_int st.St.mem addr 8 0;
      "meta overwritten"
  | A_shift k -> (
      let rets = call_protected ctx "shift" [ vi k ] in
      match rets with
      | [ St.VI k' ] when k' >= 1 && k' < ctx.p.nslots ->
          (* mirror the move in the slot model: new[j] = old[j-k'] for
             j >= k', lower slots unchanged *)
          let old = Array.copy ctx.model in
          for j = ctx.p.nslots - 1 downto k' do
            ctx.model.(j) <- old.(j - k')
          done;
          show_rets rets
      | _ -> "shift:" ^ show_rets rets)
  | A_rotget i -> show_rets (call_protected ctx "rotget" [ vi i ])

(* ------------------------------------------------------------------ *)
(* Verdicts                                                             *)
(* ------------------------------------------------------------------ *)

type verdict = V_caught | V_confined | V_escaped of string

type action_result = {
  cls : string;
  label : string;
  verdict : verdict;
  obs : string;
}

(** Boundary calls into exported protected functions are total by
    construction; if one traps, checked code was the source of the
    violation — the blame theorem's forbidden case. *)
let is_protected_api = function A_shift _ | A_rotget _ -> true | _ -> false

let run_action (ctx : ctx) (a : action) : action_result =
  let obs, trapped =
    try (perform ctx a, false) with
    | St.Trap t -> ("trap: " ^ St.string_of_trap t, true)
    | Mem.Segfault ad -> (Printf.sprintf "segfault at 0x%x" ad, true)
    | Builtins.Exit_program n -> (Printf.sprintf "exit %d" n, true)
  in
  let verdict =
    match integrity ctx with
    | Some why -> V_escaped why
    | None ->
        if trapped then
          if is_protected_api a then
            V_escaped ("protected code trapped on its own data: " ^ obs)
          else V_caught
        else V_confined
  in
  { cls = class_of a; label = label_of a; verdict; obs }

(* twin secrets: same allocation behavior, different content and
   different first-NUL position inside the secret buffer *)
let secret_long = String.concat "" (List.init 8 (fun _ -> "WXYZVWXYZV"))
let secret_short = "K"

(** Run a scenario under the twin-run non-interference oracle.  Raises
    {!Skip_scenario} if the protected component cannot be staged. *)
let eval_scenario (sc : scenario) : action_result list =
  let run secret =
    let ctx = setup sc.sp ~secret in
    List.map (run_action ctx) sc.acts
  in
  let ra = run secret_long in
  let rb = run secret_short in
  List.map2
    (fun x y ->
      match x.verdict with
      | V_escaped _ -> x
      | _ when x.obs <> y.obs ->
          {
            x with
            verdict =
              V_escaped
                (Printf.sprintf
                   "secret-dependent observation: %S vs %S" x.obs y.obs);
          }
      | _ -> x)
    ra rb

(* ------------------------------------------------------------------ *)
(* Generation                                                           *)
(* ------------------------------------------------------------------ *)

let gen_params (r : Rng.t) : params =
  {
    facility = (if Rng.bool r then St.Shadow_space else St.Hash_table);
    ht_init = Rng.pick r [ 8; 64 ];
    hole = Rng.pick r [ 32; 48; 64 ];
    sec = 16 * Rng.range r 2 4;
    nslots = Rng.pick r [ 4; 6; 8 ];
    bsz = Rng.pick r [ 16; 24; 32 ];
  }

let gen_action (r : Rng.t) (p : params) : action =
  Rng.weighted r
    [
      (2, A_fill (if Rng.bool r then [] else [ Rng.int r (p.hole + gap) ]));
      (2, A_strlen);
      (1, A_strcpy);
      (1, A_strcmp);
      (2, A_strncmp (Rng.pick r [ 2; 4; p.hole; p.hole + gap + p.sec + 8 ]));
      (1, A_strchr (Rng.pick r [ 0x41; 0x5A; 0 ]));
      (1, A_strstr);
      (1, A_strdup);
      (1, A_puts);
      (1, A_atoi);
      (1,
       A_memmove (Rng.int r 8, Rng.int r 8, Rng.range r 8 (p.hole - 8)));
      (2,
       A_forge_write
         (Rng.pick r [ T_secret; T_parr; T_block (Rng.int r p.nslots); T_meta ]));
      (1, A_forge_free (Rng.pick r [ T_secret; T_parr ]));
      (1, A_meta_write);
      (2, A_shift (Rng.range r 1 (2 * p.nslots)));
      (2, A_rotget (Rng.int r (2 * p.nslots)));
    ]

(** Scenario [index] of campaign [seed] — regenerable in isolation,
    like {!Fuzz.case_of}. *)
let scenario_of ~seed ~index : scenario =
  let r = Rng.split (Rng.create seed) index in
  let p = gen_params r in
  let n_acts = Rng.range r 4 8 in
  (* always open with a fill so the string layout is attacker-chosen *)
  let first =
    A_fill (if Rng.chance r ~pct:40 then [ Rng.int r p.hole ] else [])
  in
  let rest = List.init (n_acts - 1) (fun _ -> gen_action r p) in
  {
    name = Printf.sprintf "case-%d" index;
    sp = p;
    acts = first :: rest;
  }

(* ------------------------------------------------------------------ *)
(* Regression seeds: the wrapper bugs this PR fixes                     *)
(* ------------------------------------------------------------------ *)

(* Each of these fails against the pre-fix wrappers — the harness is
   the tool that rediscovers the bug — and must report zero escapes
   (every attack caught or confined) once fixed.  Kept fixed forever:
   they are the committed adversarial regression seeds. *)
let regressions : scenario list =
  let p =
    { facility = St.Shadow_space; ht_init = 64; hole = 32; sec = 48; nslots = 6;
      bsz = 24 }
  in
  [
    (* pre-fix: strlen/strcpy/puts scan an unterminated attacker string
       straight through the guard gap into the secret, and the trap's
       size leaks the secret's first-NUL position (twin divergence) *)
    { name = "unterm-scan"; sp = p;
      acts = [ A_fill []; A_strlen; A_strcpy; A_puts ] };
    (* pre-fix: strncmp's scan ignores its limit; with a limit larger
       than the arena the trap size is secret-dependent, and with a
       small limit the compare must stay confined with a
       secret-independent result *)
    { name = "strncmp-limit"; sp = p;
      acts = [ A_fill []; A_strncmp 4; A_strncmp 200 ] };
    (* pre-fix: the protected component's own overlapping memmove
       corrupts slot metadata (forward in-place copy), detected as
       metadata incoherence and as blame traps in [rotget] *)
    { name = "memmove-meta";
      sp = { p with facility = St.Hash_table; ht_init = 8 };
      acts = [ A_shift 1; A_rotget 2; A_shift 2; A_rotget 5 ] };
    (* pre-fix (harness-discovered): free accepted a forged pointer and
       retired the protected secret's block trap-free *)
    { name = "forge-free"; sp = p;
      acts = [ A_forge_free T_secret; A_forge_free T_parr; A_rotget 1 ] };
  ]

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                      *)
(* ------------------------------------------------------------------ *)

type case_report = {
  c_name : string;
  c_skip : string option;
  c_results : action_result list;
}

type report = {
  seed : int;
  count : int;
  cases : int;  (** scenarios that ran to verdicts *)
  skipped : int;
  caught : int;
  confined : int;
  escaped : int;
  per_class : (string * (int * int * int)) list;
      (** class -> (caught, confined, escaped) *)
  escapes : (string * string * string) list;
      (** case name, action label, reason *)
  regression_ok : bool;  (** every regression seed free of escapes *)
}

let eval_named (sc : scenario) : case_report =
  match eval_scenario sc with
  | results -> { c_name = sc.name; c_skip = None; c_results = results }
  | exception Skip_scenario why ->
      { c_name = sc.name; c_skip = Some why; c_results = [] }
  | exception e ->
      (* a harness crash must surface as a failure, not vanish *)
      {
        c_name = sc.name;
        c_skip = None;
        c_results =
          [
            {
              cls = "harness";
              label = "exception";
              verdict = V_escaped (Printexc.to_string e);
              obs = "";
            };
          ];
      }

let eval_case ~seed index : case_report =
  eval_named (scenario_of ~seed ~index)

let run_campaign ?(jobs = 1) ~seed ~count () : report =
  let gen_reports =
    if jobs <= 1 then List.init count (eval_case ~seed)
    else Parutil.parmap ~jobs (eval_case ~seed) (List.init count Fun.id)
  in
  let reg_reports = List.map eval_named regressions in
  let all = reg_reports @ gen_reports in
  let caught = ref 0 and confined = ref 0 and escaped = ref 0 in
  let skipped = ref 0 and cases = ref 0 in
  let per_class = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace per_class c (0, 0, 0)) classes;
  let escapes = ref [] in
  List.iter
    (fun cr ->
      match cr.c_skip with
      | Some _ -> incr skipped
      | None ->
          incr cases;
          List.iter
            (fun ar ->
              let ca, co, es =
                Option.value
                  (Hashtbl.find_opt per_class ar.cls)
                  ~default:(0, 0, 0)
              in
              (match ar.verdict with
              | V_caught ->
                  incr caught;
                  Hashtbl.replace per_class ar.cls (ca + 1, co, es)
              | V_confined ->
                  incr confined;
                  Hashtbl.replace per_class ar.cls (ca, co + 1, es)
              | V_escaped why ->
                  incr escaped;
                  Hashtbl.replace per_class ar.cls (ca, co, es + 1);
                  escapes := (cr.c_name, ar.label, why) :: !escapes))
            cr.c_results)
    all;
  let regression_ok =
    List.for_all
      (fun cr ->
        cr.c_skip = None
        && List.for_all
             (fun ar ->
               match ar.verdict with V_escaped _ -> false | _ -> true)
             cr.c_results)
      reg_reports
  in
  {
    seed;
    count;
    cases = !cases;
    skipped = !skipped;
    caught = !caught;
    confined = !confined;
    escaped = !escaped;
    per_class =
      List.map
        (fun c ->
          (c, Option.value (Hashtbl.find_opt per_class c) ~default:(0, 0, 0)))
        classes;
    escapes = List.rev !escapes;
    regression_ok;
  }

let render (r : report) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "adversarial: seed=%d count=%d cases=%d skipped=%d  caught=%d \
        confined=%d escaped=%d\n"
       r.seed r.count r.cases r.skipped r.caught r.confined r.escaped);
  Buffer.add_string b
    (Printf.sprintf "%-16s %8s %9s %8s\n" "attack class" "caught" "confined"
       "escaped");
  List.iter
    (fun (c, (ca, co, es)) ->
      Buffer.add_string b (Printf.sprintf "%-16s %8d %9d %8d\n" c ca co es))
    r.per_class;
  Buffer.add_string b
    (Printf.sprintf "regression seeds: %s\n"
       (if r.regression_ok then "caught (no escapes)" else "ESCAPED"));
  List.iter
    (fun (case, label, why) ->
      Buffer.add_string b
        (Printf.sprintf "ESCAPE %s %s: %s\n" case label why))
    r.escapes;
  Buffer.contents b
