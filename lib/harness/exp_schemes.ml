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

(** The matrix's scheme axis, in fixed report order: the two SoftBound
    reference configurations, then the registry in its own order.  Each
    column names its {!Matrix} configuration label. *)
let columns () : (string * string) list =
  ("softbound-full-shadow", "shadow-full-elim")
  :: ("softbound-store-shadow", "shadow-store-elim")
  :: List.map (fun e -> (e.Schemes.sname, e.Schemes.sname)) (Schemes.all ())

type row = {
  workload : Workloads.workload;
  base : Matrix.summary;  (** the unprotected run *)
  srows : (string * Matrix.summary) list;
      (** by column name; a run that does not exit 0 is recorded
          ([clean = false]), not fatal *)
}

(** One attack of the gap suite: which schemes detect it. *)
type coverage = { attack : string; cells : (string * bool) list }

let run (m : Matrix.t) : row list * coverage list =
  let rows =
    Matrix.map_kernels m (fun w ->
        {
          workload = w;
          base = Matrix.cell m w "unprotected";
          srows =
            List.map
              (fun (n, label) -> (n, Matrix.cell m w label))
              (columns ());
        })
  in
  (* the detection matrix over the fixed gap attacks: four tiny
     programs, independent of the matrix's size and width *)
  let coverage (attack, src) =
    let p = Softbound.compile src in
    let detected label =
      Runner.detected (Runner.verdict_of (Runner.run (Matrix.scheme label) p))
    in
    { attack; cells = List.map (fun (n, l) -> (n, detected l)) (columns ()) }
  in
  (rows, List.map coverage Schemes.gap_attacks)

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
              (fun (sname, s) ->
                (r.workload.Workloads.name :: sname
                 :: Exp_breakdown.split_cells ~base:r.base.Matrix.cycles s)
                @ [ Runner.yes_no s.Matrix.clean ])
              r.srows)
          rows));
  Buffer.add_string buf "\nCompleteness-gap matrix (detected?):\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:("attack" :: List.map fst (columns ()))
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
            match List.assoc_opt sname r.srows with
            | Some s when s.Matrix.clean ->
                Some (1.0 +. Matrix.overhead ~base:r.base s)
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
    (columns ());
  Buffer.contents buf

(** Machine-readable export ([BENCH_schemes.json]). *)
let to_json ((rows, cov) : row list * coverage list) : Json.t =
  let open Json in
  let coverage c =
    Obj
      [
        ("attack", Str c.attack);
        ("detected", Obj (List.map (fun (n, d) -> (n, Bool d)) c.cells));
      ]
  in
  let srow base (sname, s) =
    ( sname,
      Obj
        ([
           ("cycles", int s.Matrix.cycles);
           ("overhead", ratio (Matrix.overhead ~base s));
           ("clean", Bool s.Matrix.clean); ("outcome", Str s.Matrix.outcome);
         ]
        @ List.map
            (fun (k, c) -> (k, int c))
            (Matrix.buckets ~base:base.Matrix.cycles s)) )
  in
  Obj
    [
      ("experiment", Str "schemes");
      ("host_cpus", int (Parutil.available_jobs ()));
      ("unit", Str "simulated cycles");
      ("coverage", List (List.map coverage cov));
      ( "workloads",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("name", Str r.workload.Workloads.name);
                   ("base_cycles", int r.base.Matrix.cycles);
                   ("schemes", Obj (List.map (srow r.base) r.srows));
                 ])
             rows) );
    ]
