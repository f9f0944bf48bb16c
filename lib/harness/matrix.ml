(* The run matrix behind every workload experiment: one memoized
   summary per (kernel, configuration) cell.

   Figure 1, Figure 2, the MSCC comparison, the memory table, the
   elimination ablation, the overhead breakdown and the scheme matrix
   all report numbers about the same runs.  Each of them is a
   projection over this matrix: it asks for the cells it needs and the
   first request simulates, every later one (from any experiment in the
   same process) reads the stored summary.  Numbers shared between
   artifacts therefore agree by construction — they are the same cell.

   A matrix holds cells of one size (quick or full argument sets) and
   carries the fan-out width its projections use.  Cells are keyed by
   kernel name and configuration label rather than by [Runner.scheme],
   whose registry entries can hold closures.  A cell keeps a small
   summary, not the [Vm.result], so a full matrix (15 kernels x 20
   configurations) costs little to hold. *)

module S = Interp.State

(** What the projections read from one run. *)
type summary = {
  cycles : int;
  outcome : string;
  clean : bool;  (** exited 0 *)
  check : int;  (** site-attributed check + fptr-check cycles *)
  meta : int;  (** site-attributed metadata load/store cycles *)
  wrapper : int;  (** wrapper-inclusive cycle deltas *)
  ck_cycles : int;  (** plugin checker bookkeeping cycles *)
  checks : int;
  meta_loads : int;
  meta_stores : int;
  resident_bytes : int;
  heap_allocs : int;
  ptr_fraction : float;  (** Figure 1's pointer share of memory ops *)
}

let without_elim o = { o with Softbound.Config.eliminate_checks = false }
let without_widen o = { o with Softbound.Config.widen_checks = false }

(** Figure 2's four SoftBound configurations, by label stem. *)
let softbound_stems : (string * Softbound.Config.options) list =
  [
    ("shadow-full", Runner.sb_full_shadow);
    ("hash-full", Runner.sb_full_hash);
    ("shadow-store", Runner.sb_store_shadow);
    ("hash-store", Runner.sb_store_hash);
  ]

(** Elimination variants of each SoftBound configuration, by label
    suffix: the pass on, on without check widening, and off. *)
let elim_variants =
  [ ("elim", Fun.id); ("no-widen", without_widen); ("noelim", without_elim) ]

(** The configuration a label names: ["unprotected"], a SoftBound
    [<stem>-<variant>], or a {!Schemes} registry name. *)
let scheme (label : string) : Runner.scheme =
  let sb =
    List.find_map
      (fun (stem, opts) ->
        List.find_map
          (fun (v, f) ->
            if stem ^ "-" ^ v = label then Some (f opts) else None)
          elim_variants)
      softbound_stems
  in
  match (label, sb) with
  | "unprotected", _ -> Runner.Unprotected
  | _, Some opts -> Runner.Softbound opts
  | _, None -> Runner.Scheme (Schemes.get label)

let summarize (r : Interp.Vm.result) : summary =
  let o = r.Interp.Vm.obs and st = r.Interp.Vm.stats in
  let k = Profile.site_kind_cycles o in
  {
    cycles = st.S.cycles;
    outcome = S.string_of_outcome r.Interp.Vm.outcome;
    clean = (match r.Interp.Vm.outcome with S.Exit 0 -> true | _ -> false);
    check = k Obs.KCheck + k Obs.KCheckFptr;
    meta = k Obs.KMetaLoad + k Obs.KMetaStore;
    wrapper = Obs.wrapper_cycles o;
    ck_cycles = st.S.ck_cycles;
    checks = st.S.checks;
    meta_loads = st.S.meta_loads;
    meta_stores = st.S.meta_stores;
    resident_bytes = r.Interp.Vm.resident_bytes;
    heap_allocs = r.Interp.Vm.heap_allocs;
    ptr_fraction = Runner.pointer_op_fraction r;
  }

type t = {
  quick : bool;
  jobs : int;
  cells : (string * string, summary) Hashtbl.t;
  lock : Mutex.t;
  mutable simulations : int;
}

let create ?(jobs = 1) ~quick () : t =
  { quick; jobs; cells = Hashtbl.create 512; lock = Mutex.create ();
    simulations = 0 }

let locked m f =
  Mutex.lock m.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.lock) f

(** The summary of [w] under [label], simulated on first request.  The
    simulation runs outside the lock; projections fan out over kernels,
    so no two domains ask for the same cell at once. *)
let cell (m : t) (w : Workloads.workload) (label : string) : summary =
  let key = (w.Workloads.name, label) in
  match locked m (fun () -> Hashtbl.find_opt m.cells key) with
  | Some s -> s
  | None ->
      let argv = if m.quick then w.Workloads.quick_args else [] in
      let s =
        summarize
          (Runner.run ~argv (scheme label) (Runner.compile_workload w))
      in
      locked m (fun () ->
          m.simulations <- m.simulations + 1;
          Hashtbl.replace m.cells key s);
      s

(** How many runs this matrix has simulated so far. *)
let simulations m = locked m (fun () -> m.simulations)

(** [cell], raising {!Runner.Workload_failed} unless the run exited 0. *)
let clean_cell m w label : summary =
  let s = cell m w label in
  if not s.clean then
    raise
      (Runner.Workload_failed
         {
           workload = w.Workloads.name;
           scheme = label;
           quick = m.quick;
           outcome = s.outcome;
         });
  s

(** Simulated-cycle overhead of [s] over [base] (0.79 = 79%). *)
let overhead ~(base : summary) (s : summary) : float =
  (float_of_int s.cycles /. float_of_int base.cycles) -. 1.0

(** The overhead attribution of [s] over [base] cycles, in report
    order: check (site-attributed plus a plugin checker's bookkeeping,
    which is zero outside plugin schemes), metadata, wrapper, and the
    residual the three do not explain. *)
let buckets ~base (s : summary) : (string * int) list =
  let check = s.check + s.ck_cycles in
  [
    ("check", check); ("metadata", s.meta); ("wrapper", s.wrapper);
    ("residual", s.cycles - base - check - s.meta - s.wrapper);
  ]

(** [f] over every kernel in [Workloads.all] order, on up to the
    matrix's [jobs] domains; the result order never depends on [jobs]. *)
let map_kernels (m : t) (f : Workloads.workload -> 'a) : 'a list =
  Parutil.parmap ~jobs:m.jobs f Workloads.all
