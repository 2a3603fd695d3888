type study = {
  exact : Leon2.Optimizer.outcome;
  recast_selected : Arch.Param.var list;
  recast_config : Arch.Config.t;
  recast_actual : Cost.t;
  agrees : bool;
  recast_respects_truth : bool;
  exact_nodes_hint : string;
  milp_nodes : int;
}

let run ~weights model =
  let exact = Leon2.Optimizer.run_with_model ~weights model in
  let problem = Leon2.Formulate.make weights model in
  match Optim.Mccormick.solve problem with
  | None -> failwith "Convex.run: linearized model infeasible"
  | Some relaxed ->
      let recast_selected = Leon2.Formulate.vars_of_solution model relaxed in
      let recast_config =
        Arch.Param.apply_all Arch.Config.base recast_selected
      in
      let recast_actual =
        Engine.eval_on (Engine.default ()) Target_leon2.probe
          model.Leon2.Measure.app recast_config
      in
      {
        exact;
        recast_selected;
        recast_config;
        recast_actual;
        agrees =
          List.map (fun (v : Arch.Param.var) -> v.Arch.Param.index)
            recast_selected
          = List.map (fun (v : Arch.Param.var) -> v.Arch.Param.index)
              exact.Leon2.Optimizer.selected;
        recast_respects_truth = Optim.Binlp.check problem relaxed.Optim.Binlp.x;
        exact_nodes_hint = "combinatorial B&B (exact)";
        milp_nodes = Optim.Milp.stats_nodes ();
      }

let print ppf s =
  let name = s.exact.Leon2.Optimizer.model.Leon2.Measure.app.Apps.Registry.name in
  Format.fprintf ppf "  %s:@." name;
  Format.fprintf ppf "    exact pick:  %a@." Leon2.Optimizer.pp_selected
    s.exact.Leon2.Optimizer.selected;
  Format.fprintf ppf "    recast pick: %a@." Leon2.Optimizer.pp_selected
    s.recast_selected;
  Format.fprintf ppf
    "    agreement: %b; recast satisfies the true nonlinear constraints: %b@."
    s.agrees s.recast_respects_truth;
  Format.fprintf ppf
    "    exact actual: %a@.    recast actual: %a (LP-B&B nodes: %d)@." Cost.pp
    s.exact.Leon2.Optimizer.actual Cost.pp s.recast_actual s.milp_nodes
