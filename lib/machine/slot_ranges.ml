type columns = {
  entry : int array;
  fetch_addr : int array;
  fetch_bytes : int array;
  opcode : int array;
  transfer : bool array;
  pre_addr : int array;
  fall_addr : int array;
  call_addr : int array;
  call_bytes : int array;
  dispatch_bytes : int;
}

type t = {
  main : columns;
  shadow : columns;
  lo : int array;
  hi : int array;
  enter : int array;
  enter_transfer : bool array;
  in_shadow : bool array;
  mutable len : int;
}

let max_ranges = 1024

let create ~main ~shadow =
  {
    main;
    shadow;
    lo = Array.make max_ranges 0;
    hi = Array.make max_ranges 0;
    enter = Array.make max_ranges (-1);
    enter_transfer = Array.make max_ranges false;
    in_shadow = Array.make max_ranges false;
    len = 0;
  }
