(* Check-level observability: per-site counters, wrapper buckets,
   per-segment cache statistics, and a bounded event ring.

   The collector is purely observational — it never charges simulated
   cycles, so every simulated-cost result is bit-identical whether
   observability is enabled or not.  Cycle *attribution* works by
   difference: the interpreter snapshots its cycle counter around each
   safety-relevant operation and reports the delta here.

   Sites are the stable ids the SoftBound transformation stamps on
   [Check]/[CheckFptr]/[MetaLoad]/[MetaStore] at emission time, before
   any elimination runs; id 0 means "runtime-originated" (wrapper
   internals, allocator bookkeeping).  Operations at site 0 that execute
   inside a known wrapper are attributed to that wrapper's name, so the
   unattributable residue is only the VM's own bookkeeping.  A wrapper's
   cycles are those of the checks and metadata operations it runs: the
   work a checked call does beyond what the same builtin does
   unprotected (the library work itself is charged in both runs). *)

module Ir = Sbir.Ir
module L = Machine.Layout

(* ------------------------------------------------------------------ *)
(* Operation kinds                                                      *)
(* ------------------------------------------------------------------ *)

type kind = KCheck | KCheckFptr | KMetaLoad | KMetaStore

let kind_index = function
  | KCheck -> 0
  | KCheckFptr -> 1
  | KMetaLoad -> 2
  | KMetaStore -> 3

let n_kinds = 4

let kind_name = function
  | KCheck -> "check"
  | KCheckFptr -> "check_fptr"
  | KMetaLoad -> "meta_load"
  | KMetaStore -> "meta_store"

let all_kinds = [ KCheck; KCheckFptr; KMetaLoad; KMetaStore ]

(* ------------------------------------------------------------------ *)
(* Static site table                                                    *)
(* ------------------------------------------------------------------ *)

type site_info = {
  si_id : int;
  si_kind : kind;
  si_func : string;
  si_block : int;
}

(** Scan an instrumented module for the instrumentation sites it still
    contains (after elimination, hoisted/CSEd sites are simply absent),
    ordered by site id. *)
let sites_of_modul (m : Ir.modul) : site_info list =
  let acc = ref [] in
  Ir.iter_funcs m (fun f ->
      Array.iteri
        (fun bi b ->
          List.iter
            (fun inst ->
              let add id k =
                if id > 0 then
                  acc :=
                    { si_id = id; si_kind = k; si_func = f.Ir.fname;
                      si_block = bi }
                    :: !acc
              in
              match inst with
              | Ir.Check (_, _, _, _, site) -> add site KCheck
              | Ir.CheckFptr (_, _, _, _, site) -> add site KCheckFptr
              | Ir.MetaLoad (_, _, _, site) -> add site KMetaLoad
              | Ir.MetaStore (_, _, _, site) -> add site KMetaStore
              | Ir.CheckSpan { Ir.sp_site; sp_sites; _ } ->
                  (* a widened span keeps its original site(s) alive in
                     the census: those accesses are still checked, just
                     by one widened instruction *)
                  if Array.length sp_sites = 0 then add sp_site KCheck
                  else Array.iter (fun s -> add s KCheck) sp_sites
              | _ -> ())
            b.Ir.insts)
        f.Ir.fblocks);
  List.sort (fun a b -> compare a.si_id b.si_id) !acc

(* ------------------------------------------------------------------ *)
(* Events (trace ring)                                                  *)
(* ------------------------------------------------------------------ *)

type event =
  | E_check of { site : int; addr : int; base : int; bound : int;
                 size : int; ok : bool }
  | E_check_span of { site : int; first : int; count : int; stride : int;
                      width : int; base : int; bound : int; ok : bool }
  | E_fptr_check of { site : int; addr : int; ok : bool }
  | E_meta_load of { site : int; addr : int; base : int; bound : int }
  | E_meta_store of { site : int; addr : int; base : int; bound : int }
  | E_wrapper of { name : string }
  | E_trap of { detail : string }

let string_of_event = function
  | E_check { site; addr; base; bound; size; ok } ->
      Printf.sprintf "check      site=%-4d ptr=0x%x size=%d in [0x%x,0x%x) %s"
        site addr size base bound
        (if ok then "ok" else "VIOLATION")
  | E_check_span { site; first; count; stride; width; base; bound; ok } ->
      Printf.sprintf
        "check.span site=%-4d first=0x%x count=%d stride=%d width=%d in \
         [0x%x,0x%x) %s"
        site first count stride width base bound
        (if ok then "ok" else "VIOLATION")
  | E_fptr_check { site; addr; ok } ->
      Printf.sprintf "check.fptr site=%-4d ptr=0x%x %s" site addr
        (if ok then "ok" else "VIOLATION")
  | E_meta_load { site; addr; base; bound } ->
      Printf.sprintf "meta.load  site=%-4d [0x%x] -> (0x%x, 0x%x)" site addr
        base bound
  | E_meta_store { site; addr; base; bound } ->
      Printf.sprintf "meta.store site=%-4d [0x%x] <- (0x%x, 0x%x)" site addr
        base bound
  | E_wrapper { name } -> Printf.sprintf "wrapper    %s" name
  | E_trap { detail } -> Printf.sprintf "TRAP       %s" detail

(* ------------------------------------------------------------------ *)
(* Collector                                                            *)
(* ------------------------------------------------------------------ *)

type wrapper_stat = { mutable w_count : int; mutable w_cycles : int }

type t = {
  enabled : bool;
  (* per-kind per-site tallies; arrays grow on demand, index = site id *)
  mutable counts : int array array;  (* [kind].[site] *)
  mutable cycles : int array array;
  wrappers : (string, wrapper_stat) Hashtbl.t;
  mutable in_wrapper : wrapper_stat option;
      (** bucket of the [_sb_] wrapper currently executing, if any; site-0
          operations inside it are attributed to the wrapper *)
  (* attribution tallies over every recorded check/meta operation *)
  mutable attr_site : int;
  mutable attr_wrapper : int;
  mutable attr_runtime : int;
  (* per-segment cache-sim accounting *)
  seg_hits : int array;
  seg_misses : int array;
  (* bounded event ring; capacity 0 disables tracing *)
  ring : event array;
  ring_cap : int;
  mutable ring_len : int;
  mutable ring_next : int;
}

let dummy_event = E_trap { detail = "" }

let create ?(enabled = true) ?(trace_depth = 0) () =
  {
    enabled;
    counts = Array.init n_kinds (fun _ -> Array.make 64 0);
    cycles = Array.init n_kinds (fun _ -> Array.make 64 0);
    wrappers = Hashtbl.create 32;
    in_wrapper = None;
    attr_site = 0;
    attr_wrapper = 0;
    attr_runtime = 0;
    seg_hits = Array.make L.n_segments 0;
    seg_misses = Array.make L.n_segments 0;
    ring = (if enabled && trace_depth > 0 then Array.make trace_depth dummy_event
            else [||]);
    ring_cap = (if enabled then max 0 trace_depth else 0);
    ring_len = 0;
    ring_next = 0;
  }

let disabled = create ~enabled:false ()

let ensure_site t site =
  let k0 = t.counts.(0) in
  if site >= Array.length k0 then begin
    let cap = ref (Array.length k0) in
    while site >= !cap do
      cap := !cap * 2
    done;
    let grow old =
      let a = Array.make !cap 0 in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    t.counts <- Array.map grow t.counts;
    t.cycles <- Array.map grow t.cycles
  end

let record_op t kind ~site ~cycles =
  if t.enabled then begin
    ensure_site t site;
    let k = kind_index kind in
    t.counts.(k).(site) <- t.counts.(k).(site) + 1;
    t.cycles.(k).(site) <- t.cycles.(k).(site) + cycles;
    if site > 0 then t.attr_site <- t.attr_site + 1
    else
      match t.in_wrapper with
      | Some ws ->
          t.attr_wrapper <- t.attr_wrapper + 1;
          ws.w_cycles <- ws.w_cycles + cycles
      | None -> t.attr_runtime <- t.attr_runtime + 1
  end

(** Count a call of wrapper [name] and make it the context of the
    site-0 operations that follow, until {!restore_wrapper} with the
    returned previous context. *)
let enter_wrapper t name =
  let prev = t.in_wrapper in
  if t.enabled then begin
    let ws =
      match Hashtbl.find_opt t.wrappers name with
      | Some ws -> ws
      | None ->
          let ws = { w_count = 0; w_cycles = 0 } in
          Hashtbl.add t.wrappers name ws;
          ws
    in
    ws.w_count <- ws.w_count + 1;
    t.in_wrapper <- Some ws
  end;
  prev

let restore_wrapper t prev = if t.enabled then t.in_wrapper <- prev

let record_cache t seg ~hit =
  if t.enabled then begin
    let i = L.segment_index seg in
    if hit then t.seg_hits.(i) <- t.seg_hits.(i) + 1
    else t.seg_misses.(i) <- t.seg_misses.(i) + 1
  end

let trace_on t = t.ring_cap > 0

let trace_event t ev =
  if t.ring_cap > 0 then begin
    t.ring.(t.ring_next) <- ev;
    t.ring_next <- (t.ring_next + 1) mod t.ring_cap;
    if t.ring_len < t.ring_cap then t.ring_len <- t.ring_len + 1
  end

(** Ring contents, oldest first. *)
let events t : event list =
  let n = t.ring_len in
  List.init n (fun i ->
      t.ring.((t.ring_next - n + i + (2 * t.ring_cap)) mod t.ring_cap))

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let kind_count t k = Array.fold_left ( + ) 0 t.counts.(kind_index k)
let kind_cycles t k = Array.fold_left ( + ) 0 t.cycles.(kind_index k)
let site_count t k site =
  let a = t.counts.(kind_index k) in
  if site < Array.length a then a.(site) else 0
let site_cycles t k site =
  let a = t.cycles.(kind_index k) in
  if site < Array.length a then a.(site) else 0

(** Total count and cycle delta per executed site, over all kinds,
    sites with at least one event, ascending id.  Site 0 is included
    when runtime-originated events exist. *)
let per_site t : (int * int * int) list =
  let n = Array.length t.counts.(0) in
  let out = ref [] in
  for site = n - 1 downto 0 do
    let c = ref 0 and cy = ref 0 in
    for k = 0 to n_kinds - 1 do
      c := !c + t.counts.(k).(site);
      cy := !cy + t.cycles.(k).(site)
    done;
    if !c > 0 then out := (site, !c, !cy) :: !out
  done;
  !out

let wrapper_stats t : (string * int * int) list =
  Hashtbl.fold (fun n ws acc -> (n, ws.w_count, ws.w_cycles) :: acc)
    t.wrappers []
  |> List.sort compare

let wrapper_cycles t =
  Hashtbl.fold (fun _ ws acc -> acc + ws.w_cycles) t.wrappers 0

let attribution t = (t.attr_site, t.attr_wrapper, t.attr_runtime)

(** Fraction of recorded check/meta operations attributed to a
    transform-time site or a named wrapper context; 1.0 when none were
    recorded. *)
let attributed_fraction t =
  let total = t.attr_site + t.attr_wrapper + t.attr_runtime in
  if total = 0 then 1.0
  else float_of_int (t.attr_site + t.attr_wrapper) /. float_of_int total

let seg_stats t : (string * int * int) list =
  List.init L.n_segments (fun i ->
      (L.segment_name (L.segment_of_index i), t.seg_hits.(i),
       t.seg_misses.(i)))

(* ------------------------------------------------------------------ *)
(* Trace dump                                                           *)
(* ------------------------------------------------------------------ *)

let dump_trace t : string =
  let evs = events t in
  if evs = [] then "trace: empty (run with --trace=N to record events)\n"
  else begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "trace: last %d safety-relevant event%s (oldest first)\n"
         (List.length evs) (if List.length evs = 1 then "" else "s"));
    List.iter
      (fun ev ->
        Buffer.add_string buf "  ";
        Buffer.add_string buf (string_of_event ev);
        Buffer.add_char buf '\n')
      evs;
    Buffer.contents buf
  end
