# Shell helpers shared by the bench/check_*.sh gates.  Source it after
# setting $root:
#
#   . "$root/bench/gate_lib.sh"
#
# It defines functions only; check_all.sh runs check_*.sh, not this.

json_field () {
  # json_field FILE KEY — scalar field from a flat report (first match)
  sed -n "s/^ *\"$2\": *\"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" "$1" \
    | head -n 1
}

json_line_field () {
  # json_line_field FILE LINE KEY — scalar field from line LINE of a
  # campaign JSON (one object per line)
  sed -n "${2}p" "$1" | sed "s/.*\"$3\":\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*/\1/"
}
