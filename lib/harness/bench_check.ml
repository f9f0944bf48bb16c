(* Validator for the committed machine-readable benchmark artifacts.

   [run] parses each BENCH_*.json file with the shared {!Json} reader
   and checks the schema the downstream tooling relies on: the
   experiment tag, the presence of the per-row record arrays, the
   aggregate (geomean) fields, and — for the VM-throughput artifact —
   that both execution engines are recorded along with the baseline
   block and the speedup summary.  The serve artifact additionally pins
   the width matrix (jobs/sec and latency percentiles per domain
   count).  Across files, the cells the elim, breakdown and schemes
   artifacts share must carry the same numbers.  [verify_artifacts]
   applies the same checks to the simulated artifacts regenerated in
   memory and requires the committed files to equal them.
   `make verify` fails on any violation. *)

open Json

let errs : string list ref = ref []
let bad file msg = errs := Printf.sprintf "%s: %s" file msg :: !errs

(* the value at a key path below [obj] *)
let at obj path =
  List.fold_left (fun o k -> Option.bind o (fun o -> field o k)) (Some obj) path

let require file obj k =
  match field obj k with
  | Some v -> Some v
  | None -> bad file (Printf.sprintf "missing key %S" k); None

let require_rows file obj k =
  match require file obj k with
  | Some (List (_ :: _ as rows)) -> Some rows
  | Some (List []) -> bad file (Printf.sprintf "%S is empty" k); None
  | Some _ -> bad file (Printf.sprintf "%S is not an array" k); None
  | None -> None

(* [f ctx row] over every row of the record array [k] *)
let each_row file obj k f =
  Option.iter
    (List.iteri (fun i row -> f (Printf.sprintf "row %d: " i) row))
    (require_rows file obj k)

(* the object at [path] below [obj] must carry the numeric [keys] *)
let nums file ctx obj path keys =
  match at obj path with
  | Some g ->
      List.iter
        (fun k ->
          match field g k with
          | Some (Num _) -> ()
          | _ ->
              bad file
                (Printf.sprintf "%s%s missing or not a number" ctx
                   (String.concat "." (path @ [ k ]))))
        keys
  | None -> bad file (ctx ^ "missing " ^ String.concat "." path)

let rows_have file obj k keys =
  each_row file obj k (fun ctx row -> nums file ctx row [] keys)

let experiment_tag file obj expected =
  match require file obj "experiment" with
  | Some (Str s) when s = expected -> ()
  | Some (Str s) ->
      bad file (Printf.sprintf "experiment is %S, wanted %S" s expected)
  | Some _ -> bad file "experiment is not a string"
  | None -> ()

let check_elim file obj =
  experiment_tag file obj "elim-ablation";
  let variants = [ "on"; "no_widen"; "off" ] in
  let groups = [ "shadow_full"; "hash_full"; "shadow_store"; "hash_store" ] in
  List.iter
    (fun g -> nums file "" obj [ "geomean_overhead"; g ] variants)
    groups;
  each_row file obj "kernels" (fun ctx row ->
      nums file ctx row []
        [ "base_cycles"; "checks_widened"; "checks_coalesced";
          "checks_discharged"; "checks_value_numbered" ];
      nums file ctx row [ "elim_passes" ] Softbound.Elim.pass_names;
      (* the static discharge must reach the masked and guarded indexing
         of these two kernels, and value numbering the re-derived field
         and index addresses of these two *)
      let positive key names =
        match (field row "name", field row key) with
        | Some (Str k), Some (Num n) when List.mem k names && n <= 0.0 ->
            bad file (Printf.sprintf "%s%s: %s is %g" ctx k key n)
        | _ -> ()
      in
      positive "checks_discharged" [ "compress"; "go" ];
      positive "checks_value_numbered" [ "bisort"; "libquantum" ];
      nums file ctx row [ "checks" ] variants;
      nums file ctx row [ "meta_loads" ] [ "on"; "off" ];
      List.iter
        (fun g ->
          nums file ctx row [ g ]
            (variants @ List.map (( ^ ) "overhead_") variants))
        groups)

let check_breakdown file obj =
  experiment_tag file obj "overhead-breakdown";
  each_row file obj "workloads" (fun ctx row ->
      nums file ctx row [] [ "base_cycles" ];
      List.iter
        (fun c ->
          nums file ctx row [ "configs"; c ]
            [ "cycles"; "check"; "metadata"; "wrapper"; "residual" ])
        Exp_breakdown.configs)

let check_vmspeed file obj =
  experiment_tag file obj "vmspeed";
  let engines = [ "closure"; "decode" ] in
  (* the engine axis itself *)
  (match require file obj "engines" with
  | Some (List names) ->
      List.iter
        (fun want ->
          if not (List.mem (Str want) names) then
            bad file (Printf.sprintf "engine %S not recorded" want))
        engines
  | Some _ -> bad file "engines is not an array"
  | None -> ());
  (* the recorded reference the speedups are measured against *)
  Option.iter
    (fun b -> rows_have file b "rows" [ "cycles_per_host_sec" ])
    (require file obj "baseline");
  (* the current measurement: rows tagged by engine, plus geomeans *)
  Option.iter
    (fun c ->
      if field c "geomean_cycles_per_host_sec" = None then
        bad file "current has no geomean";
      rows_have file c "rows"
        [ "sim_cycles"; "cycles_per_host_sec"; "speedup_vs_baseline" ];
      let rows = Option.value ~default:[] (list_field c "rows") in
      List.iter
        (fun want ->
          let tagged r = field r "engine" = Some (Str want) in
          if not (List.exists tagged rows) then
            bad file (Printf.sprintf "no rows for engine %S" want))
        engines)
    (require file obj "current");
  (* per-engine overall speedup summary *)
  List.iter
    (fun eng -> nums file "" obj [ "speedup_vs_baseline"; eng ] [ "overall" ])
    engines

(* the sustained-load service benchmark: a row per worker-pool width,
   each carrying throughput and latency percentiles, plus the mix and
   loss accounting the acceptance criteria quote *)
let check_serve file obj =
  experiment_tag file obj "serve";
  nums file "" obj [] [ "jobs_total"; "speedup_max_vs_1" ];
  (match require file obj "mix" with
  | Some (Obj (_ :: _ as kinds)) ->
      nums file "" obj [ "mix" ] (List.map fst kinds)
  | Some _ -> bad file "mix is not an object"
  | None -> ());
  rows_have file obj "widths"
    [
      "jobs"; "wall_seconds"; "jobs_per_sec"; "p50_ms"; "p99_ms"; "errors";
      "lost"; "duplicated";
    ]

(* the N-scheme matrix: a coverage block pinning the completeness-gap
   story (SoftBound full sees the sub-object overflow, the
   object-granularity schemes must not), plus per-workload per-scheme
   cost records with the attribution buckets; every column of the
   matrix is present in both *)
let check_schemes file obj =
  experiment_tag file obj "schemes";
  let columns = List.map fst (Exp_schemes.columns ()) in
  let coverage =
    List.filter_map
      (fun row ->
        match field row "attack" with
        | Some (Str a) -> Some (a, row)
        | _ -> bad file "coverage row without attack"; None)
      (Option.value ~default:[] (require_rows file obj "coverage"))
  in
  let cell attack k =
    match
      Option.bind (List.assoc_opt attack coverage) (fun row ->
          at row [ "detected"; k ])
    with
    | Some (Bool b) -> Some b
    | _ -> None
  in
  List.iter
    (fun (a, _) ->
      List.iter
        (fun k ->
          if cell a k = None then
            bad file (Printf.sprintf "coverage: no bool cell %s/%s" a k))
        columns)
    coverage;
  let expect attack k want =
    match cell attack k with
    | Some b when b <> want ->
        bad file (Printf.sprintf "coverage: %s/%s should be %b" attack k want)
    | Some _ -> ()
    | None -> bad file (Printf.sprintf "coverage: no cell %s/%s" attack k)
  in
  (* SoftBound's completeness edge: full checking detects every attack
     class, including the intra-object one... *)
  List.iter
    (fun attack -> expect attack "softbound-full-shadow" true)
    [
      "sub-object-overflow"; "adjacent-heap-overflow"; "heap-underflow";
      "off-by-one-read";
    ];
  (* ...which every whole-object-bounds scheme must miss *)
  List.iter
    (fun e ->
      if e.Schemes.misses_sub_object then
        expect "sub-object-overflow" e.Schemes.sname false)
    (Schemes.all ());
  (* store-only checking is blind to the read attack by design *)
  expect "off-by-one-read" "softbound-store-shadow" false;
  each_row file obj "workloads" (fun ctx row ->
      nums file ctx row [] [ "base_cycles" ];
      List.iter
        (fun n ->
          nums file ctx row [ "schemes"; n ]
            [
              "cycles"; "overhead"; "check"; "metadata"; "wrapper";
              "residual";
            ];
          match at row [ "schemes"; n; "clean" ] with
          | Some (Bool _) -> ()
          | _ -> bad file (Printf.sprintf "%sschemes.%s.clean missing" ctx n))
        columns)

(* the memory artifact: measured resident sets for the paper's two
   facilities plus the related-work schemes' analytic metadata bytes *)
let check_memory file obj =
  experiment_tag file obj "memory";
  rows_have file obj "workloads"
    [
      "base_resident"; "hash_resident"; "shadow_resident"; "heap_allocs";
      "cguard_meta_bytes"; "framer_meta_bytes"; "l4_ptr_meta_bytes";
    ]

let targets =
  [
    ("BENCH_elim.json", check_elim);
    ("BENCH_breakdown.json", check_breakdown);
    ("BENCH_vmspeed.json", check_vmspeed);
    ("BENCH_serve.json", check_serve);
    ("BENCH_schemes.json", check_schemes);
    ("BENCH_memory.json", check_memory);
  ]

(* Cross-artifact invariants.  The elim, breakdown and schemes
   artifacts project the same (kernel, configuration) cells of one run
   matrix, so wherever the files overlap they must agree: a file
   regenerated after an accounting change while another was not shows
   up here, even though each still passes its own schema check. *)
let check_cross docs =
  let by_name f k =
    match Option.bind (List.assoc_opt f docs) (fun d -> list_field d k) with
    | Some rows ->
        Some
          (List.filter_map
             (fun r -> Option.map (fun n -> (n, r)) (str_field r "name"))
             rows)
    | None -> None
  in
  match
    ( by_name "BENCH_breakdown.json" "workloads",
      by_name "BENCH_elim.json" "kernels",
      by_name "BENCH_schemes.json" "workloads" )
  with
  | Some breakdown, Some elim, Some schemes ->
      List.iter
        (fun (name, b) ->
          match (List.assoc_opt name elim, List.assoc_opt name schemes) with
          | Some e, Some s ->
              (* [cells]: (artifact, document, path) triples that must
                 hold one and the same number *)
              let agree what cells =
                let cells =
                  List.map
                    (fun (f, d, path) ->
                      match at d path with
                      | Some (Num n) -> (f, Some n)
                      | _ -> (f, None))
                    cells
                in
                match List.map snd cells with
                | Some v :: rest when List.for_all (( = ) (Some v)) rest -> ()
                | _ ->
                    bad "cross-artifact"
                      (Printf.sprintf "%s: %s disagrees (%s)" name what
                         (String.concat ", "
                            (List.map
                               (fun (f, v) ->
                                 f ^ " "
                                 ^ Option.fold ~none:"missing"
                                     ~some:Json.number_string v)
                               cells)))
              in
              agree "base_cycles"
                (List.map
                   (fun (f, d) -> (f, d, [ "base_cycles" ]))
                   [ ("breakdown", b); ("elim", e); ("schemes", s) ]);
              List.iter
                (fun (stem, _) ->
                  let group =
                    String.map (fun c -> if c = '-' then '_' else c) stem
                  in
                  let column =
                    List.filter_map
                      (fun (sname, label) ->
                        if label = stem ^ "-elim" then
                          Some ("schemes", s, [ "schemes"; sname; "cycles" ])
                        else None)
                      (Exp_schemes.columns ())
                  in
                  agree (stem ^ "-elim cycles")
                    (("breakdown", b, [ "configs"; stem ^ "-elim"; "cycles" ])
                    :: ("elim", e, [ group; "on" ])
                    :: column);
                  agree (stem ^ "-noelim cycles")
                    [
                      ( "breakdown", b,
                        [ "configs"; stem ^ "-noelim"; "cycles" ] );
                      ("elim", e, [ group; "off" ]);
                    ])
                Matrix.softbound_stems
          | _ ->
              bad "cross-artifact"
                (name ^ ": in breakdown but missing from elim or schemes"))
        breakdown
  | _ -> () (* an unreadable file is already reported *)

(* Per-file schema checks plus the cross-artifact invariants over
   parsed documents; failures accumulate in [errs]. *)
let check_docs docs =
  List.iter
    (fun (file, obj) ->
      (* every artifact records the host parallelism it was produced
         with — the context for any wall-clock or jobs-scaling figure *)
      nums file "" obj [] [ "host_cpus" ];
      (List.assoc file targets) file obj)
    docs;
  check_cross docs

let read_doc file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> parse (really_input_string ic (in_channel_length ic)))
  with
  | exception Sys_error m -> bad file ("unreadable: " ^ m); None
  | exception Bad m -> bad file ("malformed JSON: " ^ m); None
  | obj -> Some obj

let report ok_msg =
  match List.rev !errs with
  | [] -> (ok_msg, true)
  | es -> (String.concat "\n" es, false)

(** Validate every committed benchmark artifact; returns the report and
    whether all checks passed. *)
let run () : string * bool =
  errs := [];
  check_docs
    (List.filter_map
       (fun (file, _) -> Option.map (fun d -> (file, d)) (read_doc file))
       targets);
  report
    (Printf.sprintf
       "bench-check: %d artifacts OK (%s); elim/breakdown/schemes agree"
       (List.length targets)
       (String.concat ", " (List.map fst targets)))

(** The purely simulated artifacts, projected from one matrix. *)
let simulated (m : Matrix.t) : (string * Json.t) list =
  [
    ("BENCH_elim.json", Exp_elim.(to_json (run m)));
    ("BENCH_breakdown.json", Exp_breakdown.(to_json (run m)));
    ("BENCH_schemes.json", Exp_schemes.(to_json (run m)));
    ("BENCH_memory.json", Exp_memory.(to_json (run m)));
  ]

(** The first JSON path at which [committed] and [generated] differ. *)
let rec first_diff path committed generated =
  match (committed, generated) with
  | Obj a, Obj b when List.map fst a = List.map fst b ->
      List.find_map
        (fun ((k, x), (_, y)) -> first_diff (path ^ "." ^ k) x y)
        (List.combine a b)
  | List a, List b when List.length a = List.length b ->
      List.find_map
        (fun (i, (x, y)) -> first_diff (Printf.sprintf "%s[%d]" path i) x y)
        (List.mapi (fun i p -> (i, p)) (List.combine a b))
  | a, b when a = b -> None
  | a, b ->
      let show v =
        let s = to_string v in
        if String.length s > 60 then String.sub s 0 57 ^ "..." else s
      in
      Some
        (Printf.sprintf "%s: committed %s, generated %s" path (show a)
           (show b))

(** Regenerate the simulated artifacts at full size, check them like
    the committed files, and require each committed file to equal its
    regenerated tree apart from [host_cpus]. *)
let verify_artifacts ~jobs () : string * bool =
  errs := [];
  let generated = simulated (Matrix.create ~jobs ~quick:false ()) in
  check_docs generated;
  let without_host = function
    | Obj kvs -> Obj (List.remove_assoc "host_cpus" kvs)
    | v -> v
  in
  List.iter
    (fun (file, gen) ->
      Option.iter
        (fun committed ->
          Option.iter (bad file)
            (first_diff "$" (without_host committed) (without_host gen)))
        (read_doc file))
    generated;
  report
    (Printf.sprintf
       "verify-artifacts: %s regenerate identically (host_cpus aside)"
       (String.concat ", " (List.map fst generated)))
