#!/usr/bin/env sh
# Fixed-seed verdict digest. Builds the release CLI and runs one fixed-seed
# campaign (300 seeds, 40k iterations, --rng-seed 7, one job) in three
# configurations: plain, with --exec-diff, and [tr] on mixed-shape seeds
# with --exec-diff. For each it prints one sha256 over the campaign's
# stdout, with its out-dir path normalised, and over the trigger files in
# name order (each file's name, then its bytes).
#
# Run it on two trees and compare the three lines: equal digests mean the
# two trees print the same report and write byte-identical triggers. It
# pins no value, so it is not a step of scripts/check.sh.
#
# Usage: sh scripts/fixed_seed_digest.sh   (from anywhere; ~10 s warm)
set -eu

cd "$(dirname "$0")/.."

cargo build --release --quiet --offline -p classfuzz-cli
bin="${CARGO_TARGET_DIR:-target}/release/classfuzz"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

digest() {
    label=$1
    shift
    out="$work/$label"
    if ! "$bin" fuzz --seeds 300 --iterations 40000 --rng-seed 7 --jobs 1 --out "$out" "$@" \
        >"$work/$label.stdout" 2>"$work/$label.stderr"; then
        cat "$work/$label.stderr" >&2
        exit 1
    fi
    sum=$(
        {
            sed "s|$out|<out>|g" "$work/$label.stdout"
            if [ -d "$out" ]; then
                for f in $(ls "$out" | LC_ALL=C sort); do
                    printf '%s\n' "$f"
                    cat "$out/$f"
                done
            fi
        } | sha256sum | cut -d' ' -f1
    )
    printf '%-10s %s\n' "$label" "$sum"
}

digest plain
digest exec-diff --exec-diff
digest tr-mixed --criterion tr --seed-shape mixed --exec-diff
