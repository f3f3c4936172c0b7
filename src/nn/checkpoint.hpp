// Model checkpointing: (de)serialize a Module's parameter list, or the full
// training state (parameters + optimizer moments + epoch counter), plus the
// checkpoint-directory machinery the trainer's durability layer builds on
// (manifest, keep-last-K retention, corruption-skipping discovery).
//
// Parameter format ("SPM2"): magic, parameter count, payload byte count,
// payload CRC-32, header CRC-32, then each parameter's shape + row-major
// float data. Loading requires an identically constructed module (same
// config), mirroring PyTorch's state_dict contract. Legacy "SPLM" sections
// (no checksums) still load and are flagged `checksummed = false`.
//
// Train-state format ("SPCK", version 2): header (magic, version, epoch,
// header CRC-32), then the parameter section, then the optimizer's state
// section — each section carries its own checksums, all framed the one way
// io/section.hpp frames every binary format. Restoring both halves makes
// resumed training bit-identical to never having stopped (the exact-resume
// contract core::TrainConfig::resume_from relies on); restoring parameters
// alone would rebuild Adam moments from zero and diverge on the first step.
// Version-1 states (unchecksummed sections) still load.
//
// Loading is two steps. decode_train_state needs no module: it checks every
// checksum, truncation and trailing byte and returns a TrainState value.
// apply_train_state then checks counts and shapes against the module and
// optimizer before it writes anything, so a load that fails — corrupt bytes
// or a mismatched model — leaves the destination untouched.
//
// Checkpoint directories: the trainer writes `model_epoch_<e>.bin` (servable
// parameters) + `state_epoch_<e>.bin` (resumable train state) per
// checkpointed epoch, every file through io::AtomicFile. A MANIFEST text
// file names the retained epochs (advisory — the directory scan is ground
// truth, so a corrupt manifest never blocks recovery), and
// find_latest_valid_checkpoint powers `resume_from = "auto"`: the newest
// state file that decodes cleanly and fits the run's module and optimizer,
// skipping corrupt or unfitting ones. Each candidate is read once, and the
// chosen one's decoded state is what the trainer applies.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "io/error.hpp"
#include "nn/module.hpp"
#include "nn/optimizer.hpp"
#include "tensor/matrix.hpp"

namespace splpg::nn {

void save_parameters(std::ostream& out, const Module& module);
void save_parameters_file(const std::string& path, const Module& module);

/// Throws io::FormatError (a std::runtime_error) on malformed bytes and
/// std::invalid_argument on arity/shape mismatches with the destination
/// module; either way the module is left untouched. `integrity` (when
/// non-null) reports the parsed format version and whether checksums were
/// verified (false for legacy "SPLM" sections).
void load_parameters(std::istream& in, Module& module, io::ReadIntegrity* integrity = nullptr);
void load_parameters_file(const std::string& path, Module& module,
                          io::ReadIntegrity* integrity = nullptr);

void save_train_state(std::ostream& out, const Module& module, const Optimizer& optimizer,
                      std::uint32_t epoch);
void save_train_state_file(const std::string& path, const Module& module,
                           const Optimizer& optimizer, std::uint32_t epoch);

/// A train state decoded without a module: every checksum and truncation
/// (and, from a file, every trailing byte) already checked.
struct TrainState {
  std::uint32_t epoch = 0;
  std::vector<tensor::Matrix> parameters;
  OptimizerState optimizer;
  io::ReadIntegrity integrity;
};

/// Throws io::FormatError (io::IoError for a failed open) on any defect.
[[nodiscard]] TrainState decode_train_state(std::istream& in);
[[nodiscard]] TrainState decode_train_state_file(const std::string& path);

/// Checks `state` against `module` and `optimizer` in count and shape, then
/// writes both; on a mismatch it throws std::invalid_argument having written
/// nothing. Returns the state's epoch.
std::uint32_t apply_train_state(const TrainState& state, Module& module, Optimizer& optimizer);

/// apply_train_state(decode_train_state(...)): restores parameters and
/// optimizer state, or nothing; returns the checkpoint's epoch. Same
/// exception contract as load_parameters.
std::uint32_t load_train_state(std::istream& in, Module& module, Optimizer& optimizer,
                               io::ReadIntegrity* integrity = nullptr);
std::uint32_t load_train_state_file(const std::string& path, Module& module,
                                    Optimizer& optimizer,
                                    io::ReadIntegrity* integrity = nullptr);

// ---- checkpoint directories ----

/// One checkpointed epoch inside a checkpoint directory.
struct CheckpointEntry {
  std::uint32_t epoch = 0;
  std::string model_file;  // full path; may be missing on disk
  std::string state_file;  // full path; the resumable artifact
};

[[nodiscard]] std::string checkpoint_model_file(const std::string& dir, std::uint32_t epoch);
[[nodiscard]] std::string checkpoint_state_file(const std::string& dir, std::uint32_t epoch);

/// Newest-first list of `state_epoch_<e>.bin` checkpoints present in `dir`.
/// A missing directory yields an empty list.
[[nodiscard]] std::vector<CheckpointEntry> list_checkpoints(const std::string& dir);

/// Decodes a train-state file and discards it: returns the checkpoint's
/// epoch, or throws io::FormatError / io::IoError on any defect.
std::uint32_t validate_train_state_file(const std::string& path);

/// The newest checkpoint in `dir` whose state file decodes and, when
/// `module` and `optimizer` are given, fits them (apply_train_state's count
/// and shape checks, without the writes): a state cut right after its
/// parameters decodes as one without an optimizer section, which an Adam
/// run cannot resume from. Corrupt, truncated or unfitting checkpoints are
/// skipped (counted into *skipped when non-null); nullopt when none is left.
/// Each candidate is read once; the chosen one's decoded state goes to
/// *state when non-null.
[[nodiscard]] std::optional<CheckpointEntry> find_latest_valid_checkpoint(
    const std::string& dir, std::uint32_t* skipped = nullptr, TrainState* state = nullptr,
    const Module* module = nullptr, const Optimizer* optimizer = nullptr);

/// Rewrites `dir`/MANIFEST (atomically) to name the checkpoints currently on
/// disk. The manifest is advisory — recovery always re-scans the directory —
/// but gives operators and tooling one self-checksummed place to look.
void write_checkpoint_manifest(const std::string& dir);

/// Parses `dir`/MANIFEST. Missing, unreadable, or checksum-mismatched
/// manifests yield an empty list (never an exception): the manifest must not
/// be able to block recovery.
[[nodiscard]] std::vector<CheckpointEntry> read_checkpoint_manifest(const std::string& dir);

/// Keep-last-K retention: deletes all but the newest `keep_last` checkpoint
/// epochs (model + state files) and sweeps orphaned AtomicFile temporaries.
/// `keep_last == 0` keeps every epoch (temps are still swept). Returns the
/// number of files removed.
std::size_t gc_checkpoints(const std::string& dir, std::uint32_t keep_last);

}  // namespace splpg::nn
