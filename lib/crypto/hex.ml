let digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code s.[i] in
    Bytes.set out (2 * i) digits.[b lsr 4];
    Bytes.set out ((2 * i) + 1) digits.[b land 15]
  done;
  Bytes.unsafe_to_string out

let nibble c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else begin
    let buf = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Some (Bytes.to_string buf)
      else
        match nibble s.[i], nibble s.[i + 1] with
        | Some hi, Some lo ->
          Bytes.set buf (i / 2) (Char.chr ((hi lsl 4) lor lo));
          go (i + 2)
        | _ -> None
    in
    go 0
  end
