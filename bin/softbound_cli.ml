(* softbound — command-line driver.

   Compile a MiniC source file, optionally instrument it with SoftBound,
   run it on the simulated machine, and report the outcome and cost
   statistics.

     softbound run prog.c --mode=full --facility=shadow -- arg1 arg2
     softbound run prog.c --unprotected
     softbound run prog.c --checker=mudflap-like
     softbound dump-ir prog.c [--instrumented]
     softbound check prog.c            # exit 0 iff no violation  *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- shared arguments ---- *)

let src_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"MiniC source file.")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("full", Softbound.Full_checking);
                  ("store-only", Softbound.Store_only) ])
        Softbound.Full_checking
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Checking mode: $(b,full) or $(b,store-only).")

let facility_arg =
  Arg.(
    value
    & opt (enum Softbound.Config.facility_inputs) Softbound.Config.Shadow_space
    & info [ "facility" ] ~docv:"F"
        ~doc:
          "Metadata organization: $(b,shadow), $(b,hash), or a \
           related-work cost model — $(b,obj-header) (CGuard), \
           $(b,frame-tag) (FRAMER), $(b,wide-inline) (L4 Pointer).")

let unprotected_arg =
  Arg.(
    value & flag
    & info [ "unprotected" ] ~doc:"Run without any instrumentation.")

let checker_arg =
  Arg.(
    value
    & opt
        (some
           (enum (List.map (fun e -> (e.Schemes.sname, e)) (Schemes.all ()))))
        None
    & info [ "checker" ] ~docv:"SCHEME"
        ~doc:
          (Printf.sprintf
             "Run under a registered scheme instead of SoftBound: %s."
             (String.concat ", "
                (List.map (Printf.sprintf "$(b,%s)") (Schemes.names ())))))

let no_shrink_arg =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:"Disable bounds shrinking at struct-field access.")

let no_elim_arg =
  Arg.(
    value & flag
    & info [ "no-elim" ]
        ~doc:
          "Disable the redundant-check elimination / metadata-lookup \
           hoisting pass over the instrumented code.")

let no_widen_arg =
  Arg.(
    value & flag
    & info [ "no-widen" ]
        ~doc:
          "Disable the induction-variable check-widening and in-block \
           coalescing sub-passes of the elimination pass (keeps \
           hoisting and CSE) — the widening ablation's control \
           configuration.")

let fptr_sigs_arg =
  Arg.(
    value & flag
    & info [ "fptr-sigs" ]
        ~doc:
          "Enable dynamic function-pointer signature checking (the            paper's future-work extension).")

let engine_conv =
  let parse s =
    match Softbound.Config.engine_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  Arg.conv
    (parse, fun ppf e -> Format.pp_print_string ppf (Softbound.Config.engine_name e))

let engine_arg =
  Arg.(
    value
    & opt engine_conv Interp.State.default_config.Interp.State.engine
    & info [ "engine" ] ~docv:"E"
        ~doc:
          "Execution engine: $(b,closure) (threaded code compiled at \
           load time, the default) or $(b,decode) (pre-decoded dispatch \
           loop).  Simulated outputs are bit-identical either way; only \
           host speed differs.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics.")

let trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~docv:"N"
        ~doc:
          "Record the last $(docv) safety-relevant events (checks, \
           metadata operations, wrapper calls) in a bounded ring buffer \
           and dump them when the program traps.")

let no_obs_arg =
  Arg.(
    value & flag
    & info [ "no-obs" ]
        ~doc:
          "Disable the observability collector (per-site counters and \
           the event ring).  Simulated cycle counts are identical either \
           way; this only skips the host-side bookkeeping.")

let prog_args =
  Arg.(
    value & pos_right 0 string []
    & info [] ~docv:"ARGS" ~doc:"Arguments passed to the program's main().")

let opts_of ?(fptr_sigs = false) ?(no_elim = false) ?(no_widen = false) mode
    facility no_shrink =
  {
    Softbound.Config.default with
    mode;
    facility;
    shrink_bounds = not no_shrink;
    fptr_signatures = fptr_sigs;
    eliminate_checks = not no_elim;
    widen_checks = not no_widen;
  }

let scheme_of unprotected checker mode facility no_shrink fptr_sigs no_elim
    no_widen =
  if unprotected then Harness.Runner.Unprotected
  else
    match checker with
    | Some e -> Harness.Runner.Scheme e
    | None ->
        Harness.Runner.Softbound
          (opts_of ~fptr_sigs ~no_elim ~no_widen mode facility no_shrink)

let report_err f =
  try f () with
  | Cminus.Lexer.Lex_error (m, l) ->
      Printf.eprintf "lex error at %d:%d: %s\n" l.Cminus.Lexer.line l.col m;
      exit 2
  | Cminus.Parser.Parse_error (m, l) ->
      Printf.eprintf "parse error at %d:%d: %s\n" l.Cminus.Lexer.line l.col m;
      exit 2
  | Cminus.Typecheck.Error (m, l) ->
      Printf.eprintf "type error at %d:%d: %s\n" l.Cminus.Lexer.line l.col m;
      exit 2
  | Cminus.Ctypes.Type_error m ->
      Printf.eprintf "type error: %s\n" m;
      exit 2
  | Sbir.Lower.Error m ->
      Printf.eprintf "lowering error: %s\n" m;
      exit 2

(* ---- run ---- *)

let run_cmd =
  let doc = "compile, (optionally) instrument, and execute a program" in
  let f src unprotected checker mode facility no_shrink fptr_sigs no_elim
      no_widen engine stats trace no_obs args =
    report_err (fun () ->
        let m = Softbound.compile (read_file src) in
        let scheme =
          scheme_of unprotected checker mode facility no_shrink fptr_sigs
            no_elim no_widen
        in
        let cfg =
          {
            Interp.State.default_config with
            trace_depth = trace;
            obs_enabled = not no_obs;
            engine;
          }
        in
        let r = Harness.Runner.run ~argv:args ~cfg scheme m in
        print_string r.stdout_text;
        Printf.eprintf "[%s] %s\n"
          (Harness.Runner.scheme_name scheme)
          (Interp.State.string_of_outcome r.outcome);
        (match r.outcome with
        | Interp.State.Trapped _ when trace > 0 ->
            prerr_string (Obs.dump_trace r.obs)
        | _ -> ());
        if stats then begin
          let s = r.stats in
          Printf.eprintf
            "insts=%d cycles=%d loads=%d stores=%d ptr-ops=%d checks=%d \
             meta=%d/%d cache-miss=%.1f%% resident=%dKiB heap-peak=%dKiB\n"
            s.Interp.State.insts s.cycles s.mem_reads s.mem_writes
            s.ptr_mem_ops s.checks s.meta_loads s.meta_stores
            (100.0
            *. float_of_int r.cache_misses
            /. float_of_int (max 1 (r.cache_hits + r.cache_misses)))
            (r.resident_bytes / 1024) (r.heap_peak / 1024)
        end;
        match r.outcome with
        | Interp.State.Exit n -> exit n
        | Interp.State.Trapped _ -> exit 125)
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const f $ src_arg $ unprotected_arg $ checker_arg $ mode_arg
      $ facility_arg $ no_shrink_arg $ fptr_sigs_arg $ no_elim_arg
      $ no_widen_arg $ engine_arg $ stats_arg $ trace_arg $ no_obs_arg
      $ prog_args)

(* ---- check ---- *)

let check_cmd =
  let doc =
    "run under SoftBound (full checking unless $(b,--mode) overrides); \
     exit 0 iff no spatial violation"
  in
  let f src mode facility no_elim no_widen engine args =
    report_err (fun () ->
        let m = Softbound.compile (read_file src) in
        let r =
          Softbound.run_protected
            ~opts:(opts_of ~no_elim ~no_widen mode facility false)
            ~cfg:{ Interp.State.default_config with engine; argv = args }
            m
        in
        match r.outcome with
        | Interp.State.Trapped (Interp.State.Bounds_violation _ as t) ->
            Printf.printf "VIOLATION: %s\n" (Interp.State.string_of_trap t);
            exit 1
        | Interp.State.Trapped t ->
            Printf.printf "TRAP: %s\n" (Interp.State.string_of_trap t);
            exit 3
        | Interp.State.Exit _ ->
            print_endline "OK: no spatial violations detected";
            exit 0)
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const f $ src_arg $ mode_arg $ facility_arg $ no_elim_arg $ no_widen_arg
      $ engine_arg $ prog_args)

(* ---- dump-ir ---- *)

let dump_cmd =
  let doc = "print the IR (optionally after SoftBound instrumentation)" in
  let instrumented =
    Arg.(
      value & flag
      & info [ "instrumented" ] ~doc:"Apply the SoftBound pass first.")
  in
  let no_inline =
    Arg.(value & flag & info [ "no-inline" ] ~doc:"Skip the inliner.")
  in
  let f src instr no_inline mode facility no_elim no_widen =
    report_err (fun () ->
        let m = Softbound.compile ~inline:(not no_inline) (read_file src) in
        let m =
          if instr then
            Softbound.instrument
              ~opts:(opts_of ~no_elim ~no_widen mode facility false)
              m
          else m
        in
        print_string (Sbir.Pretty_ir.dump_module m))
  in
  Cmd.v
    (Cmd.info "dump-ir" ~doc)
    Term.(
      const f $ src_arg $ instrumented $ no_inline $ mode_arg $ facility_arg
      $ no_elim_arg $ no_widen_arg)

(* ---- profile ---- *)

let profile_cmd =
  let doc =
    "run a program under SoftBound with the check-level observability \
     collector and report per-site/per-wrapper attribution, site census, \
     per-segment cache traffic, and the overhead breakdown"
  in
  let src_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"MiniC source file (omit when using $(b,--workload)).")
  in
  let workload_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Profile a built-in benchmark kernel instead of a source \
             file (see $(b,--list-workloads)).")
  in
  let list_workloads_arg =
    Arg.(
      value & flag
      & info [ "list-workloads" ] ~doc:"List built-in workload names and exit.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as deterministic JSON instead of text.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K"
          ~doc:"How many hottest sites to show in the text report.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"With $(b,--workload): use the reduced argument set.")
  in
  let f src workload list_workloads mode facility no_shrink no_elim no_widen
      engine trace json top quick args =
    if list_workloads then begin
      List.iter print_endline Workloads.names;
      exit 0
    end;
    report_err (fun () ->
        let label, m, argv =
          match (src, workload) with
          | _, Some name -> (
              match Workloads.find name with
              | Some w ->
                  let argv =
                    if args <> [] then args
                    else if quick then w.Workloads.quick_args
                    else []
                  in
                  (name, Harness.Runner.compile_workload w, argv)
              | None ->
                  Printf.eprintf
                    "unknown workload %s (try --list-workloads)\n" name;
                  exit 2)
          | Some src, None ->
              (Filename.basename src, Softbound.compile (read_file src), args)
          | None, None ->
              prerr_endline "profile: need a FILE or --workload NAME";
              exit 2
        in
        let opts = opts_of ~no_elim ~no_widen mode facility no_shrink in
        let cfg =
          { Interp.State.default_config with trace_depth = trace; engine }
        in
        let p = Harness.Profile.profile ~label ~opts ~cfg ~argv m in
        if json then print_string (Harness.Profile.to_json p)
        else begin
          print_string (Harness.Profile.render ~top p);
          match p.Harness.Profile.result.Interp.Vm.outcome with
          | Interp.State.Trapped _ when trace > 0 ->
              print_newline ();
              print_string
                (Obs.dump_trace p.Harness.Profile.result.Interp.Vm.obs)
          | _ -> ()
        end)
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const f $ src_opt_arg $ workload_arg $ list_workloads_arg $ mode_arg
      $ facility_arg $ no_shrink_arg $ no_elim_arg $ no_widen_arg $ engine_arg
      $ trace_arg $ json_arg $ top_arg $ quick_arg $ prog_args)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let doc =
    "differential fuzzing: generate random programs and run them in \
     lock-step under every pipeline configuration, flagging divergence"
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (reproducible).")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"K" ~doc:"Number of programs to generate.")
  in
  let no_minimize_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Report findings as generated, without minimizing them.")
  in
  let max_steps_arg =
    Arg.(
      value & opt int 20_000_000
      & info [ "max-steps" ] ~docv:"M"
          ~doc:"Per-run instruction budget before a case is skipped.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Evaluate cases on N domains in parallel (0 = all cores). The \
             report is identical to a sequential run: cases are independent \
             and results merge in case order.")
  in
  let adversarial_arg =
    Arg.(
      value & flag
      & info [ "adversarial" ]
          ~doc:
            "Run the robust-safety adversarial campaign instead: generated \
             attacker action sequences against protected components, every \
             action classified caught/confined/escaped.  Exit status is \
             nonzero on any escape.")
  in
  let schemes_arg =
    Arg.(
      value & flag
      & info [ "schemes" ]
          ~doc:
            "Run the N-scheme matrix oracle: each case also runs under \
             every registry scheme (CGuard, FRAMER, L4 Pointer, MSCC, and \
             the baseline checkers), and any divergence not explained by a \
             scheme's documented completeness gap is a finding.")
  in
  let f seed count no_minimize max_steps jobs adversarial schemes =
    let jobs = if jobs = 0 then Parutil.available_jobs () else jobs in
    if adversarial then begin
      let r = Fuzz.Adversary.run_campaign ~jobs ~seed ~count () in
      print_string (Fuzz.Adversary.render r);
      exit
        (if r.Fuzz.Adversary.escaped = 0 && r.Fuzz.Adversary.regression_ok
         then 0
         else 1)
    end;
    let progress k =
      if k > 0 && k mod 20 = 0 then (
        Printf.eprintf "fuzz: %d cases...\n" k;
        flush stderr)
    in
    let r =
      Fuzz.run_campaign ~shrink:(not no_minimize) ~matrix:schemes ~max_steps
        ~progress ~jobs ~seed ~count ()
    in
    print_string (Fuzz.render r);
    exit (if r.Fuzz.findings = [] then 0 else 1)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const f $ seed_arg $ count_arg $ no_minimize_arg $ max_steps_arg
      $ jobs_arg $ adversarial_arg $ schemes_arg)

(* ---- serve ---- *)

let serve_cmd =
  let doc =
    "long-running checking service: line-delimited JSON jobs on stdin (or \
     a Unix socket), one JSON result line per job, streamed in completion \
     order with the job id echoed back"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Each request is one JSON object per line with an $(b,id) (string \
         or number, echoed back verbatim) and a $(b,type) of $(b,run), \
         $(b,fuzz), $(b,profile) or $(b,adversarial).  Jobs are dispatched \
         across a persistent pool of worker domains; a malformed or \
         crashing job yields an error row, never a dead daemon.  The \
         daemon exits when stdin reaches end-of-file (after draining the \
         queue) or on SIGTERM/SIGINT.  See README.md for the full \
         protocol reference.";
    ]
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains executing jobs in parallel (0 = all cores). \
             Result order is completion order, so it varies with N; ids \
             tie rows to requests.")
  in
  let queue_arg =
    Arg.(
      value & opt int 128
      & info [ "queue" ] ~docv:"K"
          ~doc:
            "Bounded queue depth: reading pauses (backpressure) while \
             $(docv) jobs are waiting.")
  in
  let timeout_arg =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Default per-job wall-clock budget; a job past it is \
             abandoned at the next VM poll and answered with a timeout \
             error row.  Jobs may override with their own timeout_ms \
             field.")
  in
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of \
             stdin/stdout, serving one client connection at a time until \
             SIGTERM.")
  in
  let f jobs queue timeout_ms socket =
    let jobs = if jobs = 0 then Parutil.available_jobs () else jobs in
    let stop = Atomic.make false in
    List.iter
      (fun s ->
        Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
      [ Sys.sigterm; Sys.sigint ];
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let stop_fn () = Atomic.get stop in
    match socket with
    | Some path ->
        Harness.Serve.serve_socket ~jobs ~cap:queue
          ?default_timeout_ms:timeout_ms ~stop:stop_fn path;
        exit 0
    | None ->
        let read = Harness.Serve.read_lines ~stop:stop_fn Unix.stdin in
        let write s =
          print_string s;
          flush stdout
        in
        let st =
          Harness.Serve.serve ~jobs ~cap:queue ?default_timeout_ms:timeout_ms
            ~read ~write ()
        in
        Printf.eprintf "serve: %d ok, %d failed, %d rejected (%d accepted)\n"
          st.Harness.Serve.completed st.Harness.Serve.errored
          st.Harness.Serve.rejected st.Harness.Serve.accepted;
        exit 0
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(const f $ jobs_arg $ queue_arg $ timeout_arg $ socket_arg)

let main =
  let doc = "SoftBound: complete spatial memory safety for C (simulated)" in
  Cmd.group
    (Cmd.info "softbound" ~version:"1.0.0" ~doc)
    [ run_cmd; check_cmd; dump_cmd; profile_cmd; fuzz_cmd; serve_cmd ]

let () = exit (Cmd.eval main)
