(* Regenerate any of the paper's tables/figures by id.

   Usage:
     experiments table1|table3|table4|fig1|fig2|mscc|memory|ablations|all
       [--quick]  run workloads at reduced sizes
     experiments verify-artifacts [--jobs N]

   The workload experiments (fig1, fig2, mscc, memory, elim, breakdown,
   schemes) are projections over one run matrix per invocation, so a
   cell several of them need is simulated once.  At full size, memory,
   elim, breakdown and schemes also write their BENCH_*.json artifact;
   a --quick run prints its tables and leaves the committed files
   alone. *)

let usage () =
  prerr_endline
    "usage: experiments \
     <table1|table3|table4|fig1|fig2|mscc|memory|sweep|ablations|elim|\
     breakdown|vmspeed|serve|adversarial|schemes|bench-check|\
     verify-artifacts|all> [--quick] [--jobs N] [--iters N]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  (* --jobs N / --iters N: parallel width of the experiment driver and
     timed iterations of the vmspeed rows *)
  let int_opt name default =
    let rec go = function
      | flag :: v :: _ when flag = name -> (
          match int_of_string_opt v with Some n -> n | None -> usage ())
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let jobs = int_opt "--jobs" 1 in
  let iters = int_opt "--iters" 1 in
  let targets =
    let rec strip = function
      | ("--jobs" | "--iters") :: _ :: rest -> strip rest
      | "--quick" :: rest -> strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let targets = if targets = [] then usage () else targets in
  let targets =
    if List.mem "all" targets then
      [ "table1"; "table3"; "table4"; "fig1"; "fig2"; "mscc"; "memory";
        "sweep"; "ablations"; "elim"; "breakdown"; "vmspeed"; "serve";
        "adversarial"; "schemes" ]
    else targets
  in
  let matrix = Harness.Matrix.create ~jobs ~quick () in
  let artifact file json =
    if not quick then begin
      let oc = open_out file in
      output_string oc (Harness.Json.pretty json ^ "\n");
      close_out oc
    end
  in
  let fail_unless (report, ok) =
    if not ok then begin
      prerr_endline report;
      exit 1
    end;
    report
  in
  List.iter
    (fun t ->
      let out =
        match t with
        | "table1" -> Harness.Exp_table1.(render (run ()))
        | "table3" -> Harness.Exp_table3.(render (run ()))
        | "table4" -> Harness.Exp_table4.(render (run ()))
        | "fig1" -> Harness.Exp_fig1.(render (run matrix))
        | "fig2" -> Harness.Exp_fig2.(render (run matrix))
        | "mscc" -> Harness.Exp_mscc.(render (run matrix))
        | "memory" ->
            let rows = Harness.Exp_memory.run matrix in
            artifact "BENCH_memory.json" (Harness.Exp_memory.to_json rows);
            Harness.Exp_memory.render rows
        | "sweep" -> Harness.Exp_sweep.(render (run ()))
        | "ablations" -> Harness.Exp_ablation.render ()
        | "elim" ->
            let rows = Harness.Exp_elim.run matrix in
            artifact "BENCH_elim.json" (Harness.Exp_elim.to_json rows);
            Harness.Exp_elim.render rows
        | "breakdown" ->
            let rows = Harness.Exp_breakdown.run matrix in
            artifact "BENCH_breakdown.json"
              (Harness.Exp_breakdown.to_json rows);
            Harness.Exp_breakdown.render rows
        | "schemes" ->
            let rows = Harness.Exp_schemes.run matrix in
            artifact "BENCH_schemes.json" (Harness.Exp_schemes.to_json rows);
            Harness.Exp_schemes.render rows
        | "vmspeed" ->
            let rows = Harness.Exp_vmspeed.run ~quick ~iters ~jobs () in
            let oc = open_out "BENCH_vmspeed.json" in
            output_string oc (Harness.Exp_vmspeed.to_json ~quick ~iters rows);
            close_out oc;
            Harness.Exp_vmspeed.render rows
        | "serve" ->
            (* sustained-load service benchmark; --quick shrinks the
               stream from 10k to 600 jobs *)
            let total = if quick then Some 600 else None in
            let rows = Harness.Exp_serve.run ~quick ?total () in
            let oc = open_out "BENCH_serve.json" in
            output_string oc (Harness.Exp_serve.to_json ?total rows);
            close_out oc;
            Harness.Exp_serve.render ?total rows
        | "bench-check" ->
            (* validate the committed BENCH_*.json artifacts *)
            fail_unless (Harness.Bench_check.run ())
        | "verify-artifacts" ->
            (* regenerate the simulated artifacts at full size and
               require the committed files to match *)
            fail_unless (Harness.Bench_check.verify_artifacts ~jobs ())
        | "adversarial" ->
            let t = Harness.Exp_adversarial.run ~quick ~jobs () in
            if not (Harness.Exp_adversarial.ok t) then begin
              print_endline (Harness.Exp_adversarial.render t);
              prerr_endline "adversarial: robust safety violated";
              exit 1
            end;
            Harness.Exp_adversarial.render t
        | other ->
            Printf.eprintf "unknown experiment %s\n" other;
            exit 2
      in
      print_endline out;
      print_newline ())
    targets
