(* The functorized stack instantiated for the paper's own platform:
   [Leon2.Measure], [Leon2.Optimizer], ... are the LEON2 pipeline.

   No interface file on purpose: the type equalities with
   {!Target_leon2} ([config = Arch.Config.t], [var = Arch.Param.var])
   must stay visible so LEON2 callers use the [Arch] types directly. *)

include Stack.Make (Target_leon2)
