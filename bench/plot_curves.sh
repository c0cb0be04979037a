#!/bin/bash
# Renders the Fig. 6 / Fig. 7 curves that bench_paper prints as PNGs with
# gnuplot (if installed).
#
#   ./build/bench/bench_paper > paper.txt
#   bench/plot_curves.sh paper.txt out_dir/
#
# The bench output contains one "# <title>" block per series with
# epoch<TAB>mean<TAB>ci95 rows; each block becomes one plot with a shaded
# confidence band.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 <bench-output.txt> <out-dir>" >&2
  exit 2
fi
if ! command -v gnuplot >/dev/null; then
  echo "gnuplot not installed; raw curves are plain epoch/mean/ci columns" >&2
  exit 1
fi

input="$1"
outdir="$2"
mkdir -p "$outdir"

# Split into per-series data files.
awk -v outdir="$outdir" '
/^===/ { file = ""; next }
/^# Fig/ {
  title = substr($0, 3)
  gsub(/[^A-Za-z0-9._-]/, "_", title)
  file = outdir "/" title ".dat"
  next
}
/^#/ { next }
/^[0-9]/ && file != "" { print > file }
' "$input"

for dat in "$outdir"/*.dat; do
  [ -e "$dat" ] || continue
  png="${dat%.dat}.png"
  gnuplot <<EOF
set terminal pngcairo size 800,500
set output "$png"
set title "$(basename "${dat%.dat}")" noenhanced
set xlabel "epoch"
set ylabel "accuracy"
set yrange [0:1.05]
set style fill transparent solid 0.2 noborder
plot "$dat" using 1:(\$2-\$3):(\$2+\$3) with filledcurves lc rgb "#4477aa" notitle, \
     "$dat" using 1:2 with lines lw 2 lc rgb "#4477aa" title "mean"
EOF
  echo "wrote $png"
done
