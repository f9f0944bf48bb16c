(* Validator for the committed machine-readable benchmark artifacts.

   The BENCH_*.json files are hand-emitted, so nothing guarantees they
   stay well-formed as the emitters evolve.  [run] parses each file
   with the shared {!Json} reader and checks the schema the downstream
   tooling relies on: the experiment tag, the presence of the per-row
   record arrays, the aggregate (geomean) fields, and — for the
   VM-throughput artifact — that both execution engines are recorded
   along with the baseline block and the speedup summary.  The serve
   artifact additionally pins the width matrix (jobs/sec and latency
   percentiles per domain count).  Across files, the cells the elim,
   breakdown and schemes artifacts share must carry the same numbers.
   `make bench-check` (part of `make verify`) fails on any violation. *)

open Json

let parse = Json.parse
let field = Json.field

let errs : string list ref = ref []
let bad file msg = errs := Printf.sprintf "%s: %s" file msg :: !errs

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

let require_num file obj k =
  match require file obj k with
  | Some (Num _) -> ()
  | Some _ -> bad file (Printf.sprintf "%S is not a number" k)
  | None -> ()

let experiment_tag file obj expected =
  match require file obj "experiment" with
  | Some (Str s) when s = expected -> ()
  | Some (Str s) ->
      bad file (Printf.sprintf "experiment is %S, wanted %S" s expected)
  | Some _ -> bad file "experiment is not a string"
  | None -> ()

(* every row of a record array must carry the listed numeric fields *)
let rows_have file rows keys =
  List.iteri
    (fun i row ->
      List.iter
        (fun k ->
          match field row k with
          | Some (Num _) -> ()
          | Some _ ->
              bad file (Printf.sprintf "row %d: %S is not a number" i k)
          | None -> bad file (Printf.sprintf "row %d: missing %S" i k))
        keys)
    rows

let keys_num file ctx g keys =
  List.iter
    (fun k ->
      match field g k with
      | Some (Num _) -> ()
      | _ -> bad file (Printf.sprintf "%s.%s missing" ctx k))
    keys

let on_off file ctx g = keys_num file ctx g [ "on"; "off" ]

let check_elim file obj =
  experiment_tag file obj "elim-ablation";
  (match require file obj "geomean_overhead" with
  | Some geo ->
      List.iter
        (fun grp ->
          match field geo grp with
          | Some g ->
              keys_num file
                ("geomean_overhead." ^ grp)
                g
                [ "on"; "no_widen"; "off" ]
          | None -> bad file ("geomean_overhead missing " ^ grp))
        [ "shadow_full"; "hash_full"; "shadow_store"; "hash_store" ]
  | None -> ());
  match require_rows file obj "kernels" with
  | Some rows ->
      rows_have file rows
        [ "base_cycles"; "checks_widened"; "checks_coalesced" ];
      List.iteri
        (fun i row ->
          (match field row "checks" with
          | Some g ->
              keys_num file
                (Printf.sprintf "row %d: checks" i)
                g
                [ "on"; "no_widen"; "off" ]
          | None -> bad file (Printf.sprintf "row %d: missing checks" i));
          match field row "meta_loads" with
          | Some g -> on_off file (Printf.sprintf "row %d: meta_loads" i) g
          | None -> bad file (Printf.sprintf "row %d: missing meta_loads" i))
        rows;
      List.iteri
        (fun i row ->
          List.iter
            (fun grp ->
              match field row grp with
              | Some g ->
                  keys_num file
                    (Printf.sprintf "row %d: %s" i grp)
                    g
                    [
                      "on"; "no_widen"; "off"; "overhead_on";
                      "overhead_no_widen"; "overhead_off";
                    ]
              | None -> bad file (Printf.sprintf "row %d: missing %s" i grp))
            [ "shadow_full"; "hash_full"; "shadow_store"; "hash_store" ])
        rows
  | None -> ()

let check_breakdown file obj =
  experiment_tag file obj "overhead-breakdown";
  match require_rows file obj "workloads" with
  | Some rows ->
      rows_have file rows [ "base_cycles" ];
      List.iteri
        (fun i row ->
          match field row "configs" with
          | Some (Obj (_ :: _ as cfgs)) ->
              List.iter
                (fun (cname, c) ->
                  List.iter
                    (fun k ->
                      match field c k with
                      | Some (Num _) -> ()
                      | _ ->
                          bad file
                            (Printf.sprintf "row %d: configs.%s.%s missing" i
                               cname k))
                    [ "cycles"; "check"; "metadata"; "wrapper"; "residual" ])
                cfgs
          | _ -> bad file (Printf.sprintf "row %d: missing configs" i))
        rows
  | None -> ()

let check_vmspeed file obj =
  experiment_tag file obj "vmspeed";
  let engines = [ "closure"; "decode" ] in
  (* the engine axis itself *)
  (match require file obj "engines" with
  | Some (List names) ->
      let names =
        List.filter_map (function Str s -> Some s | _ -> None) names
      in
      List.iter
        (fun want ->
          if not (List.mem want names) then
            bad file (Printf.sprintf "engine %S not recorded" want))
        engines
  | Some _ -> bad file "engines is not an array"
  | None -> ());
  (* the recorded reference the speedups are measured against *)
  (match require file obj "baseline" with
  | Some b -> (
      match field b "rows" with
      | Some (List (_ :: _ as rows)) ->
          rows_have file rows [ "cycles_per_host_sec" ]
      | _ -> bad file "baseline has no rows")
  | None -> ());
  (* the current measurement: rows tagged by engine, plus geomeans *)
  (match require file obj "current" with
  | Some c -> (
      (match field c "geomean_cycles_per_host_sec" with
      | Some _ -> ()
      | None -> bad file "current has no geomean");
      match field c "rows" with
      | Some (List (_ :: _ as rows)) ->
          rows_have file rows
            [ "sim_cycles"; "cycles_per_host_sec"; "speedup_vs_baseline" ];
          List.iter
            (fun want ->
              let covered =
                List.exists
                  (fun r ->
                    match field r "engine" with
                    | Some (Str s) -> s = want
                    | _ -> false)
                  rows
              in
              if not covered then
                bad file (Printf.sprintf "no rows for engine %S" want))
            engines
      | _ -> bad file "current has no rows")
  | None -> ());
  (* per-engine overall speedup summary *)
  match require file obj "speedup_vs_baseline" with
  | Some sp ->
      List.iter
        (fun eng ->
          match field sp eng with
          | Some o -> (
              match field o "overall" with
              | Some (Num _) -> ()
              | _ -> bad file (eng ^ " speedup has no overall geomean"))
          | None -> bad file ("no speedup block for engine " ^ eng))
        engines
  | None -> ()

(* the sustained-load service benchmark: a row per worker-pool width,
   each carrying throughput and latency percentiles, plus the mix and
   loss accounting the acceptance criteria quote *)
let check_serve file obj =
  experiment_tag file obj "serve";
  (match require file obj "jobs_total" with
  | Some (Num _) -> ()
  | Some _ -> bad file "jobs_total is not a number"
  | None -> ());
  (match require file obj "mix" with
  | Some (Obj (_ :: _ as kinds)) ->
      List.iter
        (fun (k, v) ->
          match v with
          | Num _ -> ()
          | _ -> bad file (Printf.sprintf "mix.%s is not a number" k))
        kinds
  | Some _ -> bad file "mix is not an object"
  | None -> ());
  (match require_rows file obj "widths" with
  | Some rows ->
      rows_have file rows
        [
          "jobs"; "wall_seconds"; "jobs_per_sec"; "p50_ms"; "p99_ms";
          "errors"; "lost"; "duplicated";
        ]
  | None -> ());
  require_num file obj "speedup_max_vs_1"

(* the N-scheme matrix: a coverage block pinning the completeness-gap
   story (SoftBound full sees the sub-object overflow, the
   object-granularity schemes must not), plus per-workload per-scheme
   cost records with the attribution buckets *)
let check_schemes file obj =
  experiment_tag file obj "schemes";
  let bool_cell ctx det k =
    match field det k with
    | Some (Bool b) -> Some b
    | Some _ ->
        bad file (Printf.sprintf "%s.%s is not a bool" ctx k);
        None
    | None ->
        bad file (Printf.sprintf "%s: missing cell %s" ctx k);
        None
  in
  (match require_rows file obj "coverage" with
  | Some rows ->
      let cell attack k =
        List.find_map
          (fun row ->
            match (field row "attack", field row "detected") with
            | Some (Str a), Some det when a = attack ->
                bool_cell ("coverage." ^ attack) det k
            | _ -> None)
          rows
      in
      let expect attack k want =
        match cell attack k with
        | Some b when b = want -> ()
        | Some _ ->
            bad file
              (Printf.sprintf "coverage: %s/%s should be %b" attack k want)
        | None ->
            bad file (Printf.sprintf "coverage: no cell %s/%s" attack k)
      in
      (* SoftBound's completeness edge: full checking detects every
         attack class, including the intra-object one... *)
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
      expect "off-by-one-read" "softbound-store-shadow" false
  | None -> ());
  match require_rows file obj "workloads" with
  | Some rows ->
      rows_have file rows [ "base_cycles" ];
      List.iteri
        (fun i row ->
          match field row "schemes" with
          | Some (Obj (_ :: _ as srows)) ->
              List.iter
                (fun (sname, s) ->
                  List.iter
                    (fun k ->
                      match field s k with
                      | Some (Num _) -> ()
                      | _ ->
                          bad file
                            (Printf.sprintf "row %d: schemes.%s.%s missing" i
                               sname k))
                    [
                      "cycles"; "overhead"; "check"; "metadata"; "wrapper";
                      "residual";
                    ];
                  match field s "clean" with
                  | Some (Bool _) -> ()
                  | _ ->
                      bad file
                        (Printf.sprintf "row %d: schemes.%s.clean missing" i
                           sname))
                srows
          | _ -> bad file (Printf.sprintf "row %d: missing schemes" i))
        rows
  | None -> ()

(* the memory artifact: measured resident sets for the paper's two
   facilities plus the related-work schemes' analytic metadata bytes *)
let check_memory file obj =
  experiment_tag file obj "memory";
  match require_rows file obj "workloads" with
  | Some rows ->
      rows_have file rows
        [
          "base_resident"; "hash_resident"; "shadow_resident"; "heap_allocs";
          "cguard_meta_bytes"; "framer_meta_bytes"; "l4_ptr_meta_bytes";
        ]
  | None -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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
   experiments each simulate the same (kernel, configuration) cells, so
   wherever the committed files overlap they must agree: a file
   regenerated after an accounting change while another was not shows
   up here, even though each still passes its own schema check. *)
let check_cross docs =
  let doc f = List.assoc_opt f docs in
  let by_name obj k =
    match field obj k with
    | Some (List rows) ->
        List.filter_map
          (fun r ->
            match field r "name" with Some (Str n) -> Some (n, r) | _ -> None)
          rows
    | _ -> []
  in
  let num_at obj path =
    match
      List.fold_left (fun o k -> Option.bind o (fun o -> field o k))
        (Some obj) path
    with
    | Some (Num n) -> Some n
    | _ -> None
  in
  match
    ( doc "BENCH_breakdown.json",
      doc "BENCH_elim.json",
      doc "BENCH_schemes.json" )
  with
  | Some bd, Some el, Some sc ->
      let elim = by_name el "kernels" and schemes = by_name sc "workloads" in
      List.iter
        (fun (name, b) ->
          match (List.assoc_opt name elim, List.assoc_opt name schemes) with
          | Some e, Some s ->
              let agree what (pb, pe, ps) =
                let cells =
                  [
                    ("breakdown", num_at b pb); ("elim", num_at e pe);
                    ("schemes", num_at s ps);
                  ]
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
                ([ "base_cycles" ], [ "base_cycles" ], [ "base_cycles" ]);
              agree "shadow/full cycles"
                ( [ "configs"; "shadow-full-elim"; "cycles" ],
                  [ "shadow_full"; "on" ],
                  [ "schemes"; "softbound-full-shadow"; "cycles" ] );
              agree "shadow/store cycles"
                ( [ "configs"; "shadow-store-elim"; "cycles" ],
                  [ "shadow_store"; "on" ],
                  [ "schemes"; "softbound-store-shadow"; "cycles" ] )
          | _ ->
              bad "cross-artifact"
                (name ^ ": in breakdown but missing from elim or schemes"))
        (by_name bd "workloads")
  | _ -> () (* an unreadable file is already reported *)

(** Validate every committed benchmark artifact; returns the report and
    whether all checks passed. *)
let run () : string * bool =
  errs := [];
  let docs =
    List.filter_map
      (fun (file, check) ->
        match read_file file with
        | exception Sys_error m ->
            bad file ("unreadable: " ^ m);
            None
        | text -> (
            match parse text with
            | exception Bad m ->
                bad file ("malformed JSON: " ^ m);
                None
            | obj ->
                (* every artifact records the host parallelism it was
                   produced with — the context for any wall-clock or
                   jobs-scaling figure in it *)
                require_num file obj "host_cpus";
                check file obj;
                Some (file, obj)))
      targets
  in
  check_cross docs;
  match List.rev !errs with
  | [] ->
      ( Printf.sprintf
          "bench-check: %d artifacts OK (%s); elim/breakdown/schemes agree"
          (List.length targets)
          (String.concat ", " (List.map fst targets)),
        true )
  | es -> (String.concat "\n" es, false)
