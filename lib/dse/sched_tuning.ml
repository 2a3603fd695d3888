type config = { queues : int; slots : int; quantum : int }

let base = { queues = 256; slots = 16; quantum = 400 }
let packets = 3072

(* qbuf + head/tail/deficit words per queue. *)
let state_bytes c = 4 * ((c.queues * c.slots) + (3 * c.queues))

(* Service efficiency: cycles per serviced kilobyte.  Using raw cycles
   would reward dropping traffic (an undersized queue array serves
   fewer bytes in fewer cycles); the ratio penalizes drops because the
   enqueue work for a dropped packet is wasted. *)
let cycles_per_kb c =
  let program =
    Minic.Codegen.compile
      (Apps.Drr.make_program ~raw_total:true ~queues:c.queues ~slots:c.slots
         ~quantum:c.quantum ~packets ())
  in
  let cpu = Sim.Cpu.create Arch.Config.base program ~mem_size:(1 lsl 20) in
  Sim.Cpu.run cpu;
  let served_bytes = Sim.Cpu.result cpu in
  if served_bytes = 0 then infinity
  else
    float_of_int (Sim.Cpu.profile cpu).Sim.Profiler.cycles
    /. (float_of_int served_bytes /. 1024.0)

let measure c = [| cycles_per_kb c; float_of_int (state_bytes c) |]

let name = "drr-scheduler-tuning"

(* Alternative values per parameter; keeping the base value is
   implicit. *)
let groups =
  let group label set values =
    (label, List.map (fun v -> (string_of_int v, fun c -> set c v)) values)
  in
  [
    group "queues" (fun c queues -> { c with queues }) [ 64; 128; 512 ];
    group "slots" (fun c slots -> { c with slots }) [ 8; 32; 64 ];
    group "quantum" (fun c quantum -> { c with quantum }) [ 100; 200; 800; 1600 ];
  ]

(* The appliance grants the scheduler at most 12 KB of state. *)
let byte_budget = 12288.0

type outcome = {
  base_costs : float array;
  selected : (string * string) list;
  config : config;
  predicted : float array;
  actual : float array;
}

let percent_deltas ~base costs =
  Array.mapi (fun d c -> 100.0 *. (c -. base.(d)) /. base.(d)) costs

(* One solver variable per option, group-major. *)
type opt = {
  group : int;
  labels : string * string;
  apply : config -> config;
  deltas : float array;  (* percent per dimension vs base *)
  bytes : float;  (* raw state-byte delta, for the budget *)
}

let optimize ~weights =
  if Array.length weights <> 2 then
    invalid_arg (name ^ ": one weight per dimension required");
  let base_costs = measure base in
  let opts =
    List.concat
      (List.mapi
         (fun group (label, options) ->
           List.map
             (fun (value, apply) ->
               let costs = measure (apply base) in
               {
                 group;
                 labels = (label, value);
                 apply;
                 deltas = percent_deltas ~base:base_costs costs;
                 bytes = costs.(1) -. base_costs.(1);
               })
             options)
         groups)
    |> Array.of_list
  in
  let nvars = Array.length opts in
  let all = List.init nvars Fun.id in
  let objective =
    Array.map
      (fun o ->
        let s = ref 0.0 in
        Array.iteri (fun d w -> s := !s +. (w *. o.deltas.(d))) weights;
        !s)
      opts
  in
  let groups =
    List.mapi (fun gi _ -> List.filter (fun j -> opts.(j).group = gi) all) groups
    |> List.filter (fun g -> List.length g >= 2)
  in
  let budget =
    Optim.Binlp.linear
      {
        Optim.Binlp.coeffs = List.map (fun j -> (j, opts.(j).bytes)) all;
        const = 0.0;
      }
      Optim.Binlp.Le
      (byte_budget -. base_costs.(1))
  in
  let solved =
    Optim.Binlp.solve
      ~runner:(Pool.solver_runner (Pool.default ()))
      { Optim.Binlp.nvars; objective; groups; constraints = [ budget ] }
  in
  match solved.Optim.Binlp.best with
  | None -> failwith (name ^ ": no feasible selection")
  | Some solution ->
      let chosen = List.filter (fun j -> solution.Optim.Binlp.x.(j)) all in
      let config = List.fold_left (fun c j -> opts.(j).apply c) base chosen in
      {
        base_costs;
        selected = List.map (fun j -> opts.(j).labels) chosen;
        config;
        predicted =
          Array.init 2 (fun d ->
              List.fold_left (fun acc j -> acc +. opts.(j).deltas.(d)) 0.0 chosen);
        actual = percent_deltas ~base:base_costs (measure config);
      }

let print_outcome ppf o =
  Format.fprintf ppf "  base: %.1f cycles/KB, %.0f state bytes@."
    o.base_costs.(0) o.base_costs.(1);
  Format.fprintf ppf "  selected: %s@."
    (if o.selected = [] then "(keep the base values)"
     else
       String.concat ", "
         (List.map (fun (g, v) -> g ^ "=" ^ v) o.selected));
  Format.fprintf ppf "  config: %d queues x %d slots, quantum %d@."
    o.config.queues o.config.slots o.config.quantum;
  Format.fprintf ppf "  predicted: cycles/KB %+.2f%%, bytes %+.2f%%@."
    o.predicted.(0) o.predicted.(1);
  Format.fprintf ppf "  actual:    cycles/KB %+.2f%%, bytes %+.2f%%@."
    o.actual.(0) o.actual.(1)
