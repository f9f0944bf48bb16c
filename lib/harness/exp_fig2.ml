(* Figure 2: runtime overhead of the four SoftBound configurations
   (hash-table vs shadow-space metadata, complete vs store-only checks)
   over an uninstrumented baseline, per benchmark plus average.

   Absolute numbers come from the simulated-cycle model, so only the
   *shape* is compared to the paper: hash > shadow, complete > store-only,
   pointer-heavy (right side) >> scalar (left side), store-only below 15%
   for at least half of the benchmarks. *)

(** The figure's columns, as (header, matrix label): the four SoftBound
    configurations, then related-work schemes as print-only context for
    the SoftBound shape checks (the committed scheme artifact is
    BENCH_schemes.json). *)
let columns =
  [
    ("hash/full", "hash-full-elim"); ("shadow/full", "shadow-full-elim");
    ("hash/store", "hash-store-elim"); ("shadow/store", "shadow-store-elim");
    ("cguard", "cguard"); ("framer", "framer"); ("l4-ptr", "l4-pointer");
  ]

type row = {
  workload : Workloads.workload;
  base_cycles : int;
  overheads : (string * float) list;  (** by matrix label *)
}

let run (m : Matrix.t) : row list =
  Matrix.map_kernels m (fun w ->
      let base = Matrix.cell m w "unprotected" in
      let ov (_, label) =
        (label, Matrix.overhead ~base (Matrix.cell m w label))
      in
      {
        workload = w;
        base_cycles = base.Matrix.cycles;
        overheads = List.map ov columns;
      })

let ov label r = List.assoc label r.overheads

let avg f rows =
  List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows)

let render (rows : row list) : string =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Figure 2: runtime overhead of SoftBound (simulated cycles vs uninstrumented)\n";
  let pcts f = List.map (fun (_, label) -> Texttable.pct (f label)) columns in
  Buffer.add_string buf
    (Texttable.render
       ~headers:("benchmark" :: "base Mcycles" :: List.map fst columns)
       (List.map
          (fun r ->
            r.workload.Workloads.name
            :: Printf.sprintf "%.2f" (float_of_int r.base_cycles /. 1e6)
            :: pcts (fun label -> ov label r))
          rows
       @ [ "average" :: "" :: pcts (fun label -> avg (ov label) rows) ]));
  (* shape checks against the paper *)
  let n = List.length rows in
  let hf = ov "hash-full-elim" and sf = ov "shadow-full-elim" in
  let ss = ov "shadow-store-elim" in
  let count p = List.length (List.filter p rows) in
  Buffer.add_string buf
    (Printf.sprintf
       "\nshape vs paper:\n\
       \  hash-table >= shadow-space (full): %d/%d benchmarks\n\
       \  full >= store-only (shadow):       %d/%d benchmarks\n\
       \  store-only below 15%%:              %d/%d benchmarks (paper: more than half)\n\
       \  averages (paper: hash/full 127%%, shadow/full 79%%, shadow/store 32%%)\n\
       \    measured: hash/full %s, shadow/full %s, shadow/store %s\n"
       (count (fun r -> hf r >= sf r -. 0.02)) n
       (count (fun r -> sf r >= ss r -. 0.02)) n
       (count (fun r -> ss r < 0.15)) n
       (Texttable.pct (avg hf rows))
       (Texttable.pct (avg sf rows))
       (Texttable.pct (avg ss rows)));
  Buffer.contents buf
