(* N-scheme cost/coverage matrix: every workload under every protection
   scheme — the two SoftBound reference configurations, the MSCC-style
   transform, the three related-work schemes (CGuard, FRAMER, L4
   Pointer), and the three plugin baselines — with the overhead of each
   run split into check/metadata/wrapper/residual buckets, plus the
   fixed completeness-gap attack suite's detection matrix.

   This is the experiment the ROADMAP's "multi-backend scheme matrix"
   item asks for: Figure 2's cost story and Table 4's coverage story
   over *approaches*, not just SoftBound's two metadata organizations.

   Emitted as [BENCH_schemes.json]; byte-deterministic (simulated
   cycles only, no host timing), so `--jobs N` runs emit identical
   artifacts. *)

module S = Interp.State

(** The matrix's scheme axis, in fixed report order: the two SoftBound
    reference configurations, then the registry in its own order. *)
let schemes : (string * Runner.scheme) list =
  ("softbound-full-shadow", Runner.Softbound Runner.sb_full_shadow)
  :: ("softbound-store-shadow", Runner.Softbound Runner.sb_store_shadow)
  :: List.map (fun e -> (e.Schemes.sname, Runner.Scheme e)) (Schemes.all ())

type srow = {
  sname : string;
  cycles : int;
  clean : bool;  (** exited 0; a scheme incompatibility is recorded, not fatal *)
  outcome : string;
  check : int;
      (** site-attributed check cycles (transform schemes) plus the
          plugin checker's bookkeeping cycles (plugin schemes) *)
  meta : int;  (** site-attributed metadata load/store cycles *)
  wrapper : int;  (** wrapper-inclusive cycle deltas *)
  residual : int;  (** overhead minus the attributed buckets *)
}

type row = {
  workload : Workloads.workload;
  base_cycles : int;
  srows : srow list;
}

(** One attack of the gap suite: which schemes detect it. *)
type coverage = { attack : string; cells : (string * bool) list }

let srow_of ~sname ~base (r : Interp.Vm.result) : srow =
  let o = r.Interp.Vm.obs in
  let k = Profile.site_kind_cycles o in
  let stats = r.Interp.Vm.stats in
  let check = k Obs.KCheck + k Obs.KCheckFptr + stats.S.ck_cycles in
  let meta = k Obs.KMetaLoad + k Obs.KMetaStore in
  let wrapper = Obs.wrapper_cycles o in
  let cycles = stats.S.cycles in
  let clean =
    match r.Interp.Vm.outcome with S.Exit 0 -> true | _ -> false
  in
  {
    sname;
    cycles;
    clean;
    outcome = S.string_of_outcome r.Interp.Vm.outcome;
    check;
    meta;
    wrapper;
    residual = cycles - base - check - meta - wrapper;
  }

let run_one ?(quick = false) (w : Workloads.workload) : row =
  let m = Runner.compile_workload w in
  let argv = if quick then w.Workloads.quick_args else [] in
  let base = Runner.run ~argv Runner.Unprotected m in
  let base_cycles = base.Interp.Vm.stats.S.cycles in
  let srows =
    List.map
      (fun (sname, scheme) ->
        srow_of ~sname ~base:base_cycles (Runner.run ~argv scheme m))
      schemes
  in
  { workload = w; base_cycles; srows }

(** Detection matrix over the fixed gap attacks; independent of
    [quick]/[jobs] (four tiny programs, run inline). *)
let run_coverage () : coverage list =
  List.map
    (fun (attack, src) ->
      let m = Softbound.compile src in
      let cells =
        List.map
          (fun (sname, scheme) ->
            (sname, Runner.detected (Runner.verdict_of (Runner.run scheme m))))
          schemes
      in
      { attack; cells })
    Schemes.gap_attacks

let run ?(quick = false) ?(jobs = 1) () : row list * coverage list =
  (* deterministic fan-out: see the note on {!Exp_elim.run} *)
  let rows = Parutil.parmap ~jobs (run_one ~quick) Workloads.all in
  (rows, run_coverage ())

let frac part whole =
  if whole <= 0 then 0.0 else float_of_int part /. float_of_int whole

let overhead_of ~base cycles =
  if base <= 0 then 0.0 else (float_of_int cycles /. float_of_int base) -. 1.0

let render ((rows, cov) : row list * coverage list) : string =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "Scheme matrix: overhead and attribution per workload x scheme:\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         [ "benchmark"; "scheme"; "overhead"; "check"; "metadata"; "wrapper";
           "residual"; "clean" ]
       (List.concat_map
          (fun r ->
            List.map
              (fun s ->
                let ov = s.cycles - r.base_cycles in
                [
                  r.workload.Workloads.name;
                  s.sname;
                  Texttable.pct (frac ov r.base_cycles);
                  Texttable.pct (frac s.check ov);
                  Texttable.pct (frac s.meta ov);
                  Texttable.pct (frac s.wrapper ov);
                  Texttable.pct (frac s.residual ov);
                  Runner.yes_no s.clean;
                ])
              r.srows)
          rows));
  Buffer.add_string buf "\nCompleteness-gap matrix (detected?):\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:("attack" :: List.map fst schemes)
       (List.map
          (fun c ->
            c.attack
            :: List.map (fun (_, det) -> Runner.yes_no det) c.cells)
          cov));
  (* geomean overhead per scheme over the workloads it runs cleanly on *)
  Buffer.add_string buf "\ngeomean overhead on clean workloads:\n";
  List.iter
    (fun (sname, _) ->
      let ovs =
        List.filter_map
          (fun r ->
            match List.find_opt (fun s -> s.sname = sname) r.srows with
            | Some s when s.clean ->
                Some (1.0 +. overhead_of ~base:r.base_cycles s.cycles)
            | _ -> None)
          rows
      in
      match ovs with
      | [] -> Buffer.add_string buf (Printf.sprintf "  %-24s (none)\n" sname)
      | _ ->
          let g =
            exp
              (List.fold_left (fun a x -> a +. log x) 0.0 ovs
              /. float_of_int (List.length ovs))
            -. 1.0
          in
          Buffer.add_string buf
            (Printf.sprintf "  %-24s %5.1f%%  (%d/%d workloads clean)\n" sname
               (100.0 *. g) (List.length ovs) (List.length rows)))
    schemes;
  Buffer.contents buf

(** Machine-readable export ([BENCH_schemes.json]); key order and
    formatting fixed so two runs over the same workload set are
    byte-identical at any [--jobs] width. *)
let to_json ((rows, cov) : row list * coverage list) : string =
  let buf = Buffer.create 16384 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"experiment\": \"schemes\",\n";
  add "  \"host_cpus\": %d,\n" (Parutil.available_jobs ());
  add "  \"unit\": \"simulated cycles\",\n";
  add "  \"coverage\": [\n";
  List.iteri
    (fun i c ->
      add "    { \"attack\": \"%s\", \"detected\": { " c.attack;
      List.iteri
        (fun j (sname, det) ->
          add "\"%s\": %b%s" sname det
            (if j = List.length c.cells - 1 then "" else ", "))
        c.cells;
      add " } }%s\n" (if i = List.length cov - 1 then "" else ","))
    cov;
  add "  ],\n";
  add "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      add "    {\n      \"name\": \"%s\",\n      \"base_cycles\": %d,\n"
        r.workload.Workloads.name r.base_cycles;
      add "      \"schemes\": {\n";
      List.iteri
        (fun j s ->
          add
            "        \"%s\": { \"cycles\": %d, \"overhead\": %.4f, \
             \"clean\": %b, \"outcome\": \"%s\", \"check\": %d, \
             \"metadata\": %d, \"wrapper\": %d, \"residual\": %d }%s\n"
            s.sname s.cycles
            (overhead_of ~base:r.base_cycles s.cycles)
            s.clean s.outcome s.check s.meta s.wrapper s.residual
            (if j = List.length r.srows - 1 then "" else ","))
        r.srows;
      add "      }\n    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ]\n}\n";
  Buffer.contents buf
