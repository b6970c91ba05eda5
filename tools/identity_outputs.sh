#!/usr/bin/env bash
# Write the byte-identity output set of one msgate checkout.
#
#   tools/identity_outputs.sh SRC OUTDIR
#
# SRC is the checkout's source directory (the one holding msgate/), OUTDIR
# receives one file per output. Every run uses configs/three_ion.json of this
# repository, so two checkouts compare with
#
#   tools/identity_outputs.sh old/src out-old
#   tools/identity_outputs.sh new/src out-new
#   diff -r out-old out-new
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC OUTDIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
config="$(cd "$(dirname "$0")/.." && pwd)/configs/three_ion.json"

msgate() {
    PYTHONPATH="$src" python3 -m msgate.cli "$@"
}

msgate sweep-detuning --config "$config" --out "$out/sweep_detuning.csv"
msgate contour --config "$config" --out "$out/contour.csv"
msgate contour --config "$config" --z-min-us 20 --z-max-us 40 --z-steps 6 --domega-steps 20 \
    --out "$out/contour_6x20.csv"
msgate chain-study --config "$config" --n 2,12,23,33 --dx0-um 3 \
    --out "$out/chain_study.csv" --curves-out "$out/chain_study_curves.csv"
# an edge-extended sensitivity search (4.5 um N = 16) and a SensitivityEdgeError row (6 um N = 23)
msgate chain-study --config "$config" --n 4,16,23 --dx0-um 4.5,6 --out "$out/chain_study_edges.csv"
msgate parity --config "$config" --out "$out/parity.csv"
msgate design --config "$config" --out "$out/design_gaussian.json"
msgate design --config "$config" --pulse spline_gaussian --out "$out/design_spline.json"
msgate design --config "$config" --pulse square --delta0-khz -40 --out "$out/design_square.json"
msgate oracle --config "$config" --steps 5000 --out "$out/oracle.txt"
