(* Paper-Figure-style overhead breakdown: for every workload and every
   SoftBound configuration (full/store-only × shadow/hash × elim
   on/off), split the instrumented run's overhead cycles into check
   cost, metadata-operation cost, wrapper cost, and the residual
   (memory-system pressure, metadata propagation, calling-convention
   growth) — the attribution the paper gives in prose for its 67%
   average and that CGuard/FRAMER use to motivate their designs.

   Emitted as [BENCH_breakdown.json]; byte-deterministic for a fixed
   seed/workload set because site assignment, the interpreter, and the
   collector are all deterministic. *)

type row = {
  workload : Workloads.workload;
  base_cycles : int;
  splits : (string * Matrix.summary) list;  (** by configuration label *)
}

(** The 8 configuration labels, in fixed report order:
    {full,store} x {shadow,hash} x elim {on,off}. *)
let configs : string list =
  List.concat_map
    (fun (stem, _) -> [ stem ^ "-elim"; stem ^ "-noelim" ])
    Matrix.softbound_stems

let run (m : Matrix.t) : row list =
  Matrix.map_kernels m (fun w ->
      {
        workload = w;
        base_cycles = (Matrix.cell m w "unprotected").Matrix.cycles;
        splits = List.map (fun c -> (c, Matrix.clean_cell m w c)) configs;
      })

let frac part whole =
  if whole <= 0 then 0.0 else float_of_int part /. float_of_int whole

(** A run's table cells: its overhead as a fraction of [base] cycles,
    then each attribution bucket as a fraction of the overhead. *)
let split_cells ~base (s : Matrix.summary) : string list =
  let ov = s.Matrix.cycles - base in
  Texttable.pct (frac ov base)
  :: List.map (fun (_, c) -> Texttable.pct (frac c ov)) (Matrix.buckets ~base s)

let render (rows : row list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Overhead breakdown per workload x configuration (fractions of \
     overhead cycles):\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         [ "benchmark"; "config"; "overhead"; "check"; "metadata"; "wrapper";
           "residual" ]
       (List.concat_map
          (fun r ->
            List.map
              (fun (cname, s) ->
                r.workload.Workloads.name :: cname
                :: split_cells ~base:r.base_cycles s)
              r.splits)
          rows));
  (* headline aggregate: shadow/full with elimination, summed *)
  Buffer.add_string buf
    "\naggregate cycles over all workloads (shadow/full, elim on):\n";
  List.iter
    (fun bucket ->
      let tot =
        List.fold_left
          (fun acc r ->
            let s = List.assoc "shadow-full-elim" r.splits in
            acc + List.assoc bucket (Matrix.buckets ~base:r.base_cycles s))
          0 rows
      in
      Buffer.add_string buf (Printf.sprintf "  %-9s %d\n" bucket tot))
    [ "check"; "metadata"; "wrapper"; "residual" ];
  Buffer.contents buf

(** Machine-readable export ([BENCH_breakdown.json]). *)
let to_json (rows : row list) : Json.t =
  let open Json in
  let split base (cname, s) =
    ( cname,
      Obj
        (("cycles", int s.Matrix.cycles)
        :: List.map (fun (k, c) -> (k, int c)) (Matrix.buckets ~base s)) )
  in
  Obj
    [
      ("experiment", Str "overhead-breakdown");
      ("host_cpus", int (Parutil.available_jobs ()));
      ("unit", Str "simulated cycles");
      ( "workloads",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("name", Str r.workload.Workloads.name);
                   ("base_cycles", int r.base_cycles);
                   ("configs", Obj (List.map (split r.base_cycles) r.splits));
                 ])
             rows) );
    ]
