(* Memory-overhead companion to section 5.1: the hash table stores
   24-byte tagged entries only for live pointers, while the shadow space
   reserves 16 bytes per pointer-aligned word but materializes pages on
   demand.  We report the simulated resident set of each configuration
   relative to the uninstrumented run.

   The related-work schemes keep their metadata in places the simulator
   models as cost (their lookups are charged and their header/slot
   addresses touch the cache) but does not separately materialize, so
   their footprints are reported analytically from each scheme's run,
   using the scheme's documented layout:

   - CGuard: a 16-byte header (base + size) immediately before every
     allocated object -> 16 bytes per lifetime heap allocation;
   - FRAMER: a one-word (8-byte) frame header per object, located via
     the tag in the pointer's top byte (the tag itself costs no
     memory) -> 8 bytes per lifetime heap allocation;
   - L4 Pointer: 128-bit wide pointers carry base/bound inline, so
     every pointer slot written to memory is 8 bytes wider.  Counted
     per metadata store, so rewritten slots are recounted: a dynamic
     upper bound on the widened-slot footprint. *)

type row = {
  workload : Workloads.workload;
  base_resident : int;
  hash_resident : int;
  shadow_resident : int;
  heap_allocs : int;  (** lifetime allocations (uninstrumented run) *)
  cguard_meta : int;  (** 16 B object header per allocation *)
  framer_meta : int;  (** 8 B frame header per allocation *)
  l4_ptr_meta : int;  (** 8 B widening per stored pointer slot *)
}

let run_one ?(quick = true) (w : Workloads.workload) : row =
  let m = Runner.compile_workload w in
  let argv = if quick then w.Workloads.quick_args else [] in
  let base = Runner.run ~argv Runner.Unprotected m in
  let hash = Runner.run ~argv (Runner.Softbound Runner.sb_full_hash) m in
  let shadow = Runner.run ~argv (Runner.Softbound Runner.sb_full_shadow) m in
  let scheme name = Runner.run ~argv (Runner.Scheme (Schemes.get name)) m in
  let cguard = scheme "cguard" and framer = scheme "framer" in
  let l4 = scheme "l4-pointer" in
  {
    workload = w;
    base_resident = base.resident_bytes;
    hash_resident = hash.resident_bytes;
    shadow_resident = shadow.resident_bytes;
    heap_allocs = base.heap_allocs;
    cguard_meta = 16 * cguard.heap_allocs;
    framer_meta = 8 * framer.heap_allocs;
    l4_ptr_meta = 8 * l4.stats.Interp.State.meta_stores;
  }

let run ?(quick = true) () : row list =
  List.map (run_one ~quick) Workloads.all

let render (rows : row list) : string =
  Texttable.render
    ~title:
      "Metadata memory overhead (simulated resident KiB; section 5.1 \
       trade-off; scheme columns are analytic bytes from the documented \
       layouts)"
    ~headers:
      [
        "benchmark"; "base"; "hash-table"; "shadow-space"; "allocs";
        "cguard B"; "framer B"; "l4-ptr B";
      ]
    (List.map
       (fun r ->
         [
           r.workload.Workloads.name;
           Printf.sprintf "%d" (r.base_resident / 1024);
           Printf.sprintf "%d" (r.hash_resident / 1024);
           Printf.sprintf "%d" (r.shadow_resident / 1024);
           Printf.sprintf "%d" r.heap_allocs;
           Printf.sprintf "%d" r.cguard_meta;
           Printf.sprintf "%d" r.framer_meta;
           Printf.sprintf "%d" r.l4_ptr_meta;
         ])
       rows)

(** Machine-readable record ([BENCH_memory.json], schema pinned by
    {!Bench_check}). *)
let to_json (rows : row list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"experiment\": \"memory\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cpus\": %d,\n" (Parutil.available_jobs ()));
  Buffer.add_string buf "  \"unit\": \"bytes\",\n";
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"base_resident\": %d, \
            \"hash_resident\": %d, \"shadow_resident\": %d, \
            \"heap_allocs\": %d, \"cguard_meta_bytes\": %d, \
            \"framer_meta_bytes\": %d, \"l4_ptr_meta_bytes\": %d }%s\n"
           r.workload.Workloads.name r.base_resident r.hash_resident
           r.shadow_resident r.heap_allocs r.cguard_meta r.framer_meta
           r.l4_ptr_meta
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
