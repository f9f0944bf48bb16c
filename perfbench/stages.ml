(* Per-layer measurements taken from outside the layers: the compile
   pipeline called stage by stage with a timer around each public entry
   point, and the reference runs that the simulated-overhead and
   interpreter counters come from.

   The staged pipeline is only worth timing if it is the pipeline the
   service runs, so every program is also compiled and instrumented
   through the composed entry points ([Softbound.compile],
   [Softbound.instrument_with_sites]) and the printed IR of both must
   match — a mismatch is a failed operation. *)

module Ir = Sbir.Ir
module R = Harness.Runner
module M = Measure

let opts = R.sb_full_shadow

let count_insts (m : Ir.modul) =
  Hashtbl.fold
    (fun _ f acc ->
      Array.fold_left
        (fun a b -> a + List.length b.Ir.insts + 1)
        acc f.Ir.fblocks)
    m.Ir.mfuncs 0

let sum_funcs (count : Ir.func -> int) (m : Ir.modul) =
  Hashtbl.fold (fun _ f acc -> acc + count f) m.Ir.mfuncs 0

(** Transform with elimination off, then [Elim.elim_func] per function
    with the pre-transform register count as [meta_floor] — what
    [Transform.transform_with_sites] does internally, split so each
    half can be timed. *)
let transform_then_elim (m : Ir.modul) =
  let (mt, sites), t_transform =
    M.time (fun () ->
        Softbound.Transform.transform_with_sites
          ~opts:{ opts with Softbound.Config.eliminate_checks = false }
          m)
  in
  let mfuncs = Hashtbl.copy mt.Ir.mfuncs in
  let t_elim = ref 0.0 in
  (* the transformed order lists each source function's renamed
     counterpart at the same position, then the global initializer *)
  List.iteri
    (fun i name ->
      let f0 = Hashtbl.find m.Ir.mfuncs name in
      let tname = List.nth mt.Ir.mfunc_order i in
      let f, dt =
        M.time (fun () ->
            Softbound.Elim.elim_func ~meta_floor:f0.Ir.fnregs
              ~widen:opts.Softbound.Config.widen_checks
              (Hashtbl.find mfuncs tname))
      in
      t_elim := !t_elim +. dt;
      Hashtbl.replace mfuncs tname f)
    m.Ir.mfunc_order;
  (mt, { mt with Ir.mfuncs }, sites, t_transform, !t_elim)

(** Run every source through the staged pipeline, check it against the
    composed one, and record the cminus / ir / core / interp-load
    metrics: times as the mean per program, counts as totals.  The
    composed calls are timed too: [trace.overhead_ratio] is the staged,
    timed pipeline's host time over theirs, the cost of timing each
    stage from outside. *)
let pipeline (r : M.result) (srcs : string list) =
  let t = Array.make 8 0.0 in
  let composed = ref 0.0 in
  let c = Array.make 7 0 in
  let bytes = ref 0 in
  let dump = Sbir.Pretty_ir.dump_module in
  List.iteri
    (fun i src ->
      let step k f =
        let v, dt = M.time f in
        t.(k) <- t.(k) +. dt;
        v
      in
      let tp = step 0 (fun () -> Cminus.Typecheck.program_of_string src) in
      let m0 = step 1 (fun () -> Sbir.Lower.lower_program tp) in
      let m1 = step 2 (fun () -> Sbir.Opt.run m0) in
      let m2 = step 3 (fun () -> Sbir.Inline.run m1) in
      let m3 = step 2 (fun () -> Sbir.Opt.run m2) in
      let mc, t_compile = M.time (fun () -> Softbound.compile src) in
      M.check r
        (String.equal (dump m3) (dump mc))
        (fun () -> Printf.sprintf "program %d: staged frontend differs" i);
      let mt, me, sites, t_tr, t_el = transform_then_elim m3 in
      t.(4) <- t.(4) +. t_tr;
      t.(5) <- t.(5) +. t_el;
      let (mi, _), t_instrument =
        M.time (fun () -> Softbound.instrument_with_sites ~opts m3)
      in
      composed := !composed +. t_compile +. t_instrument;
      M.check r
        (String.equal (dump me) (dump mi))
        (fun () -> Printf.sprintf "program %d: staged transform differs" i);
      let cfg =
        {
          Interp.State.default_config with
          Interp.State.meta =
            Some (Softbound.facility_of opts.Softbound.Config.facility);
        }
      in
      (* [me] is a fresh module value, so the closure compiler misses *)
      let ld = step 6 (fun () -> Interp.Vm.create ~cfg me) in
      ignore (step 7 (fun () -> Interp.Compile.attach ld));
      bytes := !bytes + String.length src;
      c.(0) <- c.(0) + count_insts m0;
      c.(1) <- c.(1) + count_insts m3;
      c.(2) <- c.(2) + sites;
      c.(3) <- c.(3) + sum_funcs Softbound.Elim.count_checks mt;
      c.(4) <- c.(4) + sum_funcs Softbound.Elim.count_checks me;
      c.(5) <- c.(5) + sum_funcs Softbound.Elim.count_widened me;
      c.(6) <- c.(6) + sum_funcs Softbound.Elim.count_coalesced me)
    srcs;
  let n = float_of_int (max 1 (List.length srcs)) in
  let ms k = 1000.0 *. t.(k) /. n in
  let cnt k = float_of_int c.(k) in
  M.add r "cminus.frontend_ms" "ms" (ms 0);
  M.add r "cminus.src_kb_per_s" "KB/s"
    (M.ratio (float_of_int !bytes /. 1024.0) t.(0));
  M.add r "ir.lower_ms" "ms" (ms 1);
  M.add r "ir.opt_ms" "ms" (ms 2);
  M.add r "ir.inline_ms" "ms" (ms 3);
  M.add r "ir.insts_lowered" "count" (cnt 0);
  M.add r "ir.insts_optimized" "count" (cnt 1);
  M.add r "core.transform_ms" "ms" (ms 4);
  M.add r "core.elim_ms" "ms" (ms 5);
  M.add r "core.sites" "count" (cnt 2);
  M.add r "core.static_checks_kept_ratio" "ratio" (M.ratio (cnt 4) (cnt 3));
  M.add r "core.checks_widened" "count" (cnt 5);
  M.add r "core.checks_coalesced" "count" (cnt 6);
  M.add r "interp.load_ms" "ms" (ms 6);
  M.add r "interp.closure_compile_ms" "ms" (ms 7);
  M.add r "trace.overhead_ratio" "ratio"
    (M.ratio (M.sum (Array.to_list (Array.sub t 0 6))) !composed)

(* ------------------------------------------------------------------ *)
(* Reference runs                                                       *)
(* ------------------------------------------------------------------ *)

let schemes =
  [
    ("unprotected", R.Unprotected);
    ("shadow", R.Softbound R.sb_full_shadow);
    ("hash", R.Softbound R.sb_full_hash);
  ]

(** One program run under every scheme of {!schemes}, in that order. *)
type cell = {
  label : string;
  category : Workloads.category;
  runs : (Interp.Vm.result * float) list;  (** result, host seconds *)
}

let cycles (res : Interp.Vm.result) = res.Interp.Vm.stats.Interp.State.cycles

(** The four [sim_overhead_*] metrics: geomean simulated-cycle overhead
    per category, for shadow and hash. *)
let sim_overhead (r : M.result) (cells : cell list) =
  List.iteri
    (fun k facility ->
      List.iter
        (fun (cat, cname) ->
          let pairs =
            List.filter_map
              (fun c ->
                match c.runs with
                | (base, _) :: instrumented when c.category = cat ->
                    Some (cycles (fst (List.nth instrumented k)), cycles base)
                | _ -> None)
              cells
          in
          M.add r
            (Printf.sprintf "sim_overhead_%s_%s_pct" facility cname)
            "%"
            (if pairs = [] then 0.0 else 100.0 *. M.geomean_ov pairs))
        [ (Workloads.Spec, "spec"); (Workloads.Olden, "olden") ])
    [ "shadow"; "hash" ]

(** Interpreter and machine counters over the instrumented runs, and
    simulated throughput per scheme. *)
let run_counters (r : M.result) (cells : cell list) =
  let instrumented =
    List.concat_map (fun c -> List.map fst (List.tl c.runs)) cells
  in
  let total f =
    float_of_int
      (List.fold_left
         (fun a (res : Interp.Vm.result) -> a + f res.Interp.Vm.stats)
         0 instrumented)
  in
  M.add r "interp.checks" "count" (total (fun s -> s.Interp.State.checks));
  M.add r "interp.meta_loads" "count"
    (total (fun s -> s.Interp.State.meta_loads));
  M.add r "interp.meta_stores" "count"
    (total (fun s -> s.Interp.State.meta_stores));
  M.add r "interp.ht_probes" "count"
    (total (fun s -> s.Interp.State.ht_probes));
  let all = List.concat_map (fun c -> List.map fst c.runs) cells in
  let hits = List.fold_left (fun a x -> a + x.Interp.Vm.cache_hits) 0 all in
  let misses =
    List.fold_left (fun a x -> a + x.Interp.Vm.cache_misses) 0 all
  in
  M.add r "machine.cache_miss_ratio" "ratio"
    (M.ratio (float_of_int misses) (float_of_int (hits + misses)));
  M.add r "machine.heap_peak_bytes" "bytes"
    (float_of_int
       (List.fold_left (fun a x -> max a x.Interp.Vm.heap_peak) 0 all));
  List.iteri
    (fun k (name, _) ->
      let runs = List.map (fun c -> List.nth c.runs k) cells in
      let cyc = M.sum (List.map (fun (x, _) -> float_of_int (cycles x)) runs) in
      let secs = M.sum (List.map snd runs) in
      M.add r
        ("interp.sim_mcycles_per_s." ^ name)
        "Mcycles/s"
        (M.ratio (cyc /. 1e6) secs))
    schemes

(** Check / metadata / wrapper cycles attributed by [Harness.Profile],
    summed over the modules under shadow and hash. *)
let profile_cycles (r : M.result) ?(argv = []) (progs : Ir.modul list) =
  let acc = Array.make 3 0 in
  List.iter
    (fun m ->
      List.iter
        (fun o ->
          let p =
            Harness.Profile.profile ~opts:o ~argv ~with_baseline:false m
          in
          acc.(0) <- acc.(0) + Harness.Profile.check_cycles p;
          acc.(1) <- acc.(1) + Harness.Profile.meta_cycles p;
          acc.(2) <- acc.(2) + Harness.Profile.wrapper_cycles p)
        [ R.sb_full_shadow; R.sb_full_hash ])
    progs;
  M.add r "interp.check_cycles" "cycles" (float_of_int acc.(0));
  M.add r "interp.meta_cycles" "cycles" (float_of_int acc.(1));
  M.add r "interp.wrapper_cycles" "cycles" (float_of_int acc.(2))

(** Host time of shadow runs with observability on over the same runs
    with it off, alternating until each side has [min_s] seconds. *)
let obs_ratio ?(min_s = 0.5) (r : M.result) ?(argv = [])
    (progs : Ir.modul list) =
  let scheme = R.Softbound R.sb_full_shadow in
  let side obs =
    let cfg =
      { Interp.State.default_config with Interp.State.obs_enabled = obs }
    in
    snd
      (M.time (fun () ->
           List.iter (fun m -> ignore (R.run ~argv ~cfg scheme m)) progs))
  in
  let on = ref 0.0 and off = ref 0.0 in
  while !on < min_s || !off < min_s do
    on := !on +. side true;
    off := !off +. side false
  done;
  M.add r "obs.exec_on_off_ratio" "ratio" (M.ratio !on !off)

(** Median host cost of a cache hit in [Runner.compile_source_cached]
    and [Runner.instrument_cached], for one already-cached program. *)
let cached_hit_costs (r : M.result) (src : string) =
  let m = R.compile_source_cached src in
  ignore (R.instrument_cached ~opts m);
  let per_call f =
    M.median
      (List.init 200 (fun _ -> snd (M.time f) *. 1e6))
  in
  M.add r "runner.compile_cached_hit_us" "us"
    (per_call (fun () -> ignore (R.compile_source_cached src)));
  M.add r "runner.instrument_cached_hit_us" "us"
    (per_call (fun () -> ignore (R.instrument_cached ~opts m)))
