(* Ablation of the redundant-check elimination pass (Elim): every
   Figure 2 configuration — {hash-table, shadow-space} x {full,
   store-only} — run over the 15 kernels with [eliminate_checks] on and
   off, reporting per-benchmark and geometric-mean simulated-cycle
   overheads plus the dynamic check/metadata-lookup counts the pass
   removed.

   The acceptance bar: with elimination on, the geometric-mean overhead
   must drop versus off in at least the shadow/full configuration (the
   paper's headline config), with detection untouched — the test suite
   re-runs the Wilander/BugBench matrix under elimination separately. *)

(** One configuration's runs by variant, keyed as in the artifact:
    ["on"], ["no_widen"] (elimination on, check widening off — the
    control) and ["off"]. *)
type variants = (string * Matrix.summary) list

(** The variant keys, in {!Matrix.elim_variants} order. *)
let keys = [ "on"; "no_widen"; "off" ]

type row = {
  workload : Workloads.workload;
  base : Matrix.summary;
  configs : (string * variants) list;
      (** per {!Matrix.softbound_stems} entry, e.g. ["shadow-full"] *)
  widened : int;  (** static loop-widened spans, shadow/full *)
  coalesced : int;  (** static checks folded into in-block spans *)
  discharged : int;
      (** static accesses proven in bounds at instrumentation time,
          shadow/full *)
  passes : (string * int) list;
      (** static instructions each Elim sub-pass removed, shadow/full *)
}

let run (m : Matrix.t) : row list =
  Matrix.map_kernels m (fun w ->
      let variants stem =
        List.map2
          (fun key (suffix, _) -> (key, Matrix.cell m w (stem ^ "-" ^ suffix)))
          keys Matrix.elim_variants
      in
      let src = Runner.compile_workload w in
      let mi, _ = Runner.instrument_cached ~opts:Runner.sb_full_shadow src in
      let count f = Hashtbl.fold (fun _ fn n -> n + f fn) mi.Sbir.Ir.mfuncs 0 in
      {
        workload = w;
        base = Matrix.cell m w "unprotected";
        configs =
          List.map
            (fun (stem, _) -> (stem, variants stem))
            Matrix.softbound_stems;
        widened = count Softbound.Elim.count_widened;
        coalesced = count Softbound.Elim.count_coalesced;
        discharged =
          Softbound.Transform.count_discharged ~opts:Runner.sb_full_shadow src;
        passes = Softbound.Transform.pass_stats ~opts:Runner.sb_full_shadow src;
      })

(** Checks the [check-vn] sub-pass removed: equal by value to a check
    that already ran, though not by register name. *)
let value_numbered r = List.assoc "check-vn" r.passes

let run_of r stem key = List.assoc key (List.assoc stem r.configs)
let ov r stem key = Matrix.overhead ~base:r.base (run_of r stem key)

(** Geometric mean of the cycle ratios (instrumented / base) of one
    configuration's variant, reported as an overhead — the acceptance
    metric. *)
let geomean_ov stem key (rows : row list) : float =
  let log_sum =
    List.fold_left (fun acc r -> acc +. log (1.0 +. ov r stem key)) 0.0 rows
  in
  exp (log_sum /. float_of_int (List.length rows)) -. 1.0

let stems = List.map fst Matrix.softbound_stems
let rename c s = String.map (fun x -> if x = '-' then c else x) s

let render (rows : row list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Check-elimination ablation: simulated-cycle overhead with the Elim \
     pass on / off\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         [ "benchmark"; "shadow/full on"; "no-widen"; "shadow/full off";
           "saved"; "checks on/nw/off"; "widened"; "coalesced"; "discharged";
           "value-numbered" ]
       (List.map
          (fun r ->
            let ov = ov r "shadow-full" in
            let checks k = (run_of r "shadow-full" k).Matrix.checks in
            [
              r.workload.Workloads.name;
              Texttable.pct (ov "on");
              Texttable.pct (ov "no_widen");
              Texttable.pct (ov "off");
              Texttable.pct (ov "off" -. ov "on");
              Printf.sprintf "%d/%d/%d" (checks "on") (checks "no_widen")
                (checks "off");
              Printf.sprintf "%d" r.widened;
              Printf.sprintf "%d" r.coalesced;
              Printf.sprintf "%d" r.discharged;
              Printf.sprintf "%d" (value_numbered r);
            ])
          rows));
  let gm stem key = Texttable.pct (geomean_ov stem key rows) in
  Buffer.add_string buf "\ngeometric-mean overheads across the 15 kernels:\n";
  List.iter
    (fun stem ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %-13s %s -> %s -> %s  (geomean overhead off -> no-widen -> on)\n"
           (rename '/' stem) (gm stem "off") (gm stem "no_widen")
           (gm stem "on")))
    stems;
  let sf_off = geomean_ov "shadow-full" "off" rows in
  let sf_on = geomean_ov "shadow-full" "on" rows in
  Buffer.add_string buf
    (Printf.sprintf
       "\nacceptance (shadow/full): elimination %s the geomean overhead \
        (%s -> %s)\n"
       (if sf_on < sf_off then "LOWERS" else "DOES NOT LOWER")
       (Texttable.pct sf_off) (Texttable.pct sf_on));
  Buffer.contents buf

(** Machine-readable per-kernel cycles for the perf trajectory
    ([BENCH_elim.json]). *)
let to_json (rows : row list) : Json.t =
  let open Json in
  let kernel r =
    let counts f keys =
      Obj (List.map (fun k -> (k, int (f (run_of r "shadow-full" k)))) keys)
    in
    let config (stem, vs) =
      ( rename '_' stem,
        Obj
          (List.map (fun (k, s) -> (k, int s.Matrix.cycles)) vs
          @ List.map
              (fun (k, _) -> ("overhead_" ^ k, ratio (ov r stem k)))
              vs) )
    in
    Obj
      ([ ("name", Str r.workload.Workloads.name);
         ("base_cycles", int r.base.Matrix.cycles) ]
      @ List.map config r.configs
      @ [
          ("checks", counts (fun s -> s.Matrix.checks) keys);
          ("meta_loads", counts (fun s -> s.Matrix.meta_loads) [ "on"; "off" ]);
          ("checks_widened", int r.widened);
          ("checks_coalesced", int r.coalesced);
          ("checks_discharged", int r.discharged);
          ("checks_value_numbered", int (value_numbered r));
          ("elim_passes", Obj (List.map (fun (n, k) -> (n, int k)) r.passes));
        ])
  in
  let geo stem =
    ( rename '_' stem,
      Obj (List.map (fun k -> (k, ratio (geomean_ov stem k rows))) keys) )
  in
  Obj
    [
      ("experiment", Str "elim-ablation");
      ("host_cpus", int (Parutil.available_jobs ()));
      ("unit", Str "simulated cycles");
      ("kernels", List (List.map kernel rows));
      ("geomean_overhead", Obj (List.map geo stems));
    ]
