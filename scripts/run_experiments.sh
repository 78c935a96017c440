#!/bin/sh
# Example end-to-end CLI runs producing CSV in ./results/
set -e
cd "$(dirname "$0")/.."
# the package runs from this checkout's src/, installed or not
PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
mkdir -p results
python3 -m meanfield.cli check
python3 -m meanfield.cli simulate   --config scripts/configs/thermostat_plateau.cfg --out results/thermostat_plateau.csv
python3 -m meanfield.cli omega-n    --config scripts/configs/omega_gaussian_d3.cfg  --out results/omega_gaussian_d3.csv
python3 -m meanfield.cli chaos-curve --config scripts/configs/vlasov_doubling.cfg   --out results/vlasov_doubling.csv
python3 -m meanfield.cli chaos-curve --config scripts/configs/elastic_chaos_curve.cfg \
    --workers 4 --out results/elastic_chaos_curve.csv
echo "results written to ./results/"
