type t = {
  btb : Btb.t;
  mispredict_penalty : int;
  mutable cycles : int;
  mutable instructions : int;
  mutable mispredicts : int;
  probe : Wp_obs.Probe.t option;
}

let create ?btb ?(mispredict_penalty = 4) ?probe () =
  {
    btb = (match btb with Some b -> b | None -> Btb.create ~entries:128);
    mispredict_penalty;
    cycles = 0;
    instructions = 0;
    mispredicts = 0;
    probe;
  }

let retire t ~pc ~opcode ~fetch_stall ~dmem_stall ~taken =
  if fetch_stall < 0 || dmem_stall < 0 then
    invalid_arg "Core_model.retire: negative stall";
  let exec_extra = Wp_isa.Opcode.execute_latency opcode - 1 in
  let branch_penalty =
    match opcode with
    | Wp_isa.Opcode.Branch ->
        let predicted = Btb.predict_taken t.btb pc in
        Btb.update t.btb pc ~taken;
        if predicted <> taken then begin
          t.mispredicts <- t.mispredicts + 1;
          t.mispredict_penalty
        end
        else 0
    | Wp_isa.Opcode.Jump | Call | Return | Alu _ | Mac | Load | Store | Nop ->
        0
  in
  t.cycles <- t.cycles + 1 + fetch_stall + dmem_stall + exec_extra + branch_penalty;
  t.instructions <- t.instructions + 1;
  match t.probe with
  | None -> ()
  | Some p ->
      p (Wp_obs.Probe.Retire { cycles = t.cycles; instrs = t.instructions })

let cycles t = t.cycles
let instructions t = t.instructions
let mispredicts t = t.mispredicts

let ipc t =
  if t.cycles = 0 then 0.0 else float_of_int t.instructions /. float_of_int t.cycles

let reset t =
  Btb.reset t.btb;
  t.cycles <- 0;
  t.instructions <- 0;
  t.mispredicts <- 0
