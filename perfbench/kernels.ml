(* The [kernels] workload: the 15 paper kernels at full size, each run
   under unprotected, SoftBound shadow-space and SoftBound hash-table on
   the closure engine with the default VM configuration, one run after
   another on one domain — Figure 2's traffic.  The seed only permutes
   the run order inside a pass; the runs themselves are fixed. *)

module R = Harness.Runner
module M = Measure

type prog = { w : Workloads.workload; m : Sbir.Ir.modul }

(** Every kernel runs with no arguments: its full size. *)
let argv = []

(** Everything the timed passes need is compiled here: frontend,
    transform (shadow and hash share one instrumented module) and the
    closure-engine compilation of every module. *)
let setup () : prog list =
  List.map
    (fun (w : Workloads.workload) ->
      let m = R.compile_workload w in
      List.iter
        (fun (_, scheme) ->
          let m' =
            match scheme with
            | R.Softbound opts -> fst (R.instrument_cached ~opts m)
            | _ -> m
          in
          ignore (Interp.Compile.attach (Interp.Vm.create m')))
        Stages.schemes;
      { w; m })
    Workloads.all

(** The kernels' sources and arguments: a change to any kernel shows up
    as different inputs. *)
let digest () =
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (String.concat " " argv
          :: List.map
               (fun (w : Workloads.workload) -> w.name ^ "\001" ^ w.source)
               Workloads.all)))

type run = { p : prog; sname : string; res : Interp.Vm.result; secs : float }

(** One pass over every (kernel, scheme) pair in [order]. *)
let pass order =
  List.map
    (fun (p, (sname, scheme)) ->
      let res, secs = M.time (fun () -> R.run ~argv scheme p.m) in
      { p; sname; res; secs })
    order

let run (r : M.result) ~seed ~seconds ~traced ~expected (progs : prog list) =
  let order =
    M.shuffle seed
      (List.concat_map
         (fun p -> List.map (fun s -> (p, s)) Stages.schemes)
         progs)
  in
  let first_cycles = Hashtbl.create 64 in
  let verify runs =
    List.iter
      (fun x ->
        let name = x.p.w.Workloads.name in
        let key = (name, x.sname) in
        let c = Stages.cycles x.res in
        if not (Hashtbl.mem first_cycles key) then
          Hashtbl.replace first_cycles key c;
        M.check r
          (x.res.Interp.Vm.outcome = Interp.State.Exit 0
          && String.equal x.res.Interp.Vm.stdout_text (List.assoc name expected)
          && Hashtbl.find first_cycles key = c)
          (fun () ->
            Printf.sprintf "%s/%s: %s, stdout %S" name x.sname
              (Interp.State.string_of_outcome x.res.Interp.Vm.outcome)
              x.res.Interp.Vm.stdout_text))
      runs
  in
  (* timed passes until [seconds] are spent *)
  let deadline = M.now () +. seconds in
  let all = ref [] in
  let gc0 = Gc.quick_stat () and a0 = M.allocated_bytes () in
  let tr0 = R.transforms_performed () in
  let k = ref 0 in
  let last = ref 0.0 in
  while !k < 2 || (M.now () +. !last < deadline && !k < 40) do
    let runs, secs = M.time (fun () -> pass order) in
    last := secs;
    verify runs;
    all := runs :: !all;
    incr k
  done;
  let gc1 = Gc.quick_stat () and a1 = M.allocated_bytes () in
  let transforms = R.transforms_performed () - tr0 in
  let passes = List.rev !all in
  let n_runs = List.length order in
  let cells =
    List.map
      (fun p ->
        let runs_of sname =
          let xs =
            List.concat_map
              (List.filter (fun x -> x.p == p && x.sname = sname))
              passes
          in
          ((List.hd xs).res, M.median (List.map (fun x -> x.secs) xs))
        in
        {
          Stages.label = p.w.Workloads.name;
          category = p.w.Workloads.category;
          runs = List.map (fun (s, _) -> runs_of s) Stages.schemes;
        })
      progs
  in
  (* a pass's time as the sum of each run's median over the passes, so
     a stall in one pass does not move it *)
  let run_secs = List.concat_map (fun c -> List.map snd c.Stages.runs) cells in
  let wall = M.sum run_secs in
  M.add r "wall_s" "s" wall;
  M.add r "jobs_per_s" "1/s" (float_of_int n_runs /. wall);
  M.add r "verdict_p50_ms" "ms" (1000.0 *. M.median run_secs);
  Stages.sim_overhead r cells;
  if traced then begin
    List.iter
      (fun (c : Stages.cell) ->
        List.iter2
          (fun (sname, _) (_, secs) ->
            M.add r
              (Printf.sprintf "interp.exec_ms.%s.%s" c.label sname)
              "ms" (1000.0 *. secs))
          Stages.schemes c.runs)
      cells;
    Stages.run_counters r cells;
    let jobs = float_of_int (n_runs * List.length passes) in
    M.add r "runtime.alloc_mb_per_job" "MB" ((a1 -. a0) /. 1e6 /. jobs);
    M.add r "runtime.minor_gcs_per_job" "count"
      (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
      /. jobs);
    M.add r "runtime.major_gcs" "count"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    let modules = List.map (fun p -> p.m) progs in
    Stages.pipeline r (List.map (fun p -> p.w.Workloads.source) progs);
    Stages.profile_cycles r ~argv modules;
    Stages.obs_ratio r ~argv modules;
    (* two of the three schemes instrument *)
    M.add r "runner.transform_hit_ratio" "ratio"
      (1.0 -. M.ratio (float_of_int transforms) (jobs *. 2.0 /. 3.0));
    Stages.cached_hit_costs r (List.hd progs).w.Workloads.source
  end
