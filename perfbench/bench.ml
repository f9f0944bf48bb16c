(* perfbench: one workload per process.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--setup-only]
     bench.exe --capture-expected

   Prints progress on stderr and, as its last stdout line, one JSON
   object: the set-up time, the digest of the generated inputs, the
   checked-operation counts and the metrics (the end-to-end ones with
   --trace 0, the per-layer ones with --trace 1).  run.py builds this
   program, repeats the set-up in fresh processes and turns the line
   into the benchmark's result. *)

module J = Harness.Json
module M = Measure

let workloads = [ "kernels"; "serve-fresh"; "serve-repeat" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("sim_overhead_shadow_spec_pct", "%");
    ("sim_overhead_shadow_olden_pct", "%");
    ("sim_overhead_hash_spec_pct", "%");
    ("sim_overhead_hash_olden_pct", "%");
    ("peak_rss_mb", "MB");
  ]

(** Every per-layer metric, in report order.  A workload that does not
    exercise a layer reports it as 0 (see README.md).  The first three
    are the workload's host-time figures: they would be end-to-end
    metrics, but on a shared host their run-to-run spread exceeds any
    bound a regression gate can use. *)
let per_layer =
  [
    ("wall_s", "s");
    ("jobs_per_s", "1/s");
    ("verdict_p50_ms", "ms");
    ("cminus.frontend_ms", "ms");
    ("cminus.src_kb_per_s", "KB/s");
    ("ir.lower_ms", "ms");
    ("ir.opt_ms", "ms");
    ("ir.inline_ms", "ms");
    ("ir.insts_lowered", "count");
    ("ir.insts_optimized", "count");
    ("core.transform_ms", "ms");
    ("core.elim_ms", "ms");
    ("core.sites", "count");
    ("core.static_checks_kept_ratio", "ratio");
    ("core.checks_widened", "count");
    ("core.checks_coalesced", "count");
    ("runner.source_hit_ratio", "ratio");
    ("runner.transform_hit_ratio", "ratio");
    ("runner.compile_cached_hit_us", "us");
    ("runner.instrument_cached_hit_us", "us");
    ("interp.load_ms", "ms");
    ("interp.closure_compile_ms", "ms");
  ]
  @ List.concat_map
      (fun (w : Workloads.workload) ->
        List.map
          (fun (s, _) ->
            (Printf.sprintf "interp.exec_ms.%s.%s" w.Workloads.name s, "ms"))
          Stages.schemes)
      Workloads.all
  @ List.map
      (fun (s, _) -> ("interp.sim_mcycles_per_s." ^ s, "Mcycles/s"))
      Stages.schemes
  @ [
      ("interp.checks", "count");
      ("interp.meta_loads", "count");
      ("interp.meta_stores", "count");
      ("interp.ht_probes", "count");
      ("interp.check_cycles", "cycles");
      ("interp.meta_cycles", "cycles");
      ("interp.wrapper_cycles", "cycles");
      ("machine.cache_miss_ratio", "ratio");
      ("machine.heap_peak_bytes", "bytes");
      ("obs.exec_on_off_ratio", "ratio");
      ("serve.width", "count");
      ("serve.service_ms_p50", "ms");
      ("serve.service_ms_p99", "ms");
      ("serve.queue_wait_ms_p50", "ms");
      ("serve.queue_wait_ms_p99", "ms");
      ("serve.verdict_p99_ms", "ms");
      ("serve.proto_parse_us", "us");
      ("serve.row_encode_us", "us");
      ("par.scaling", "ratio");
      ("runtime.alloc_mb_per_job", "MB");
      ("runtime.minor_gcs_per_job", "count");
      ("runtime.major_gcs", "count");
      ("loadgen.lag_p99_ms", "ms");
      ("trace.overhead_ratio", "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Known answers for the kernels                                        *)
(* ------------------------------------------------------------------ *)

(** The kernels' known answers, relative to the root of the checkout:
    each kernel's stdout from the decode (reference) engine, unprotected,
    at full size. *)
let expected_file = "perfbench/expected_kernels.json"

let capture_expected () =
  let module R = Harness.Runner in
  let cfg =
    { Interp.State.default_config with engine = Interp.State.Eng_decode }
  in
  let fields =
    List.map
      (fun (w : Workloads.workload) ->
        let res = R.run ~cfg R.Unprotected (R.compile_workload w) in
        R.check_clean ~workload:w.name ~scheme:"unprotected" res;
        (w.name, J.Str res.Interp.Vm.stdout_text))
      Workloads.all
  in
  let oc = open_out expected_file in
  output_string oc (J.to_string (J.Obj fields) ^ "\n");
  close_out oc

let read_expected () =
  let ic = open_in_bin expected_file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse text with
  | J.Obj kvs ->
      List.map
        (function k, J.Str v -> (k, v) | k, _ -> failwith ("bad entry " ^ k))
        kvs
  | _ -> failwith (expected_file ^ ": expected an object")

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let num f = Printf.sprintf "%.17g" f

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and setup_only = ref false and capture = ref false in
  Arg.parse
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead");
      ("--setup-only", Arg.Set setup_only, " time the set-up and stop");
      ("--capture-expected", Arg.Set capture, " write " ^ expected_file);
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let usage msg =
    prerr_endline ("bench.exe: " ^ msg);
    exit 2
  in
  if !capture then (
    capture_expected ();
    exit 0);
  if !workload = "" then usage "--workload is required";
  let r = M.create () in
  let traced = !trace = 1 in
  let setup, measure =
    match !workload with
    | "kernels" ->
        let expected = read_expected () in
        let progs, t = M.time Kernels.setup in
        ( (t, Kernels.digest ()),
          fun () ->
            Kernels.run r ~seed:!seed ~seconds:!seconds ~traced ~expected
              progs )
    | w ->
        let kind = if w = "serve-fresh" then Load.Fresh else Load.Repeat in
        let st, t = M.time (fun () -> Load.setup kind ~seed:!seed) in
        ( (t, st.Load.digest),
          fun () -> Load.run r st ~seconds:!seconds ~traced )
  in
  let setup_s, digest = setup in
  if !setup_only then
    print_endline (Printf.sprintf "{\"setup_s\":%s}" (num setup_s))
  else begin
    measure ();
    M.add r "setup_s" "s" setup_s;
    M.add r "peak_rss_mb" "MB" (M.peak_rss_mb ());
    let wanted = if traced then per_layer else end_to_end in
    let got = List.rev r.M.metrics in
    List.iter
      (fun (name, v, u) ->
        match List.assoc_opt name (end_to_end @ per_layer) with
        | Some u' when u = u' && Float.is_finite v -> ()
        | _ -> failwith (Printf.sprintf "metric %s = %g %s unlisted" name v u))
      got;
    let metrics =
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun (n, _, _) -> n = name) got with
          | Some m -> m
          | None when traced ->
              (* a layer this workload does not reach *)
              (name, 0.0, unit_)
          | None -> failwith ("missing metric " ^ name))
        wanted
    in
    List.iter (fun f -> M.log "FAILED %s" f) (List.rev r.M.failures);
    print_endline
      (Printf.sprintf
         "{\"setup_s\":%s,\"digest\":%S,\"attempted\":%d,\"failed\":%d,\
          \"metrics\":[%s]}"
         (num setup_s) digest r.M.attempted r.M.failed
         (String.concat ","
            (List.map
               (fun (n, v, u) -> Printf.sprintf "[%S,%s,%S]" n (num v) u)
               metrics)))
  end
