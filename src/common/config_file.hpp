/**
 * @file
 * Declarative experiment configs: an INI/TOML-subset parser plus a
 * binder that maps parsed files onto SystemConfig sweeps.
 *
 * A config file describes a whole experiment as data — the machine
 * ([system], [imp], [gp], [stream], [ghb]), the prefetcher attachment
 * ([prefetch]) and an optional grid of sweep axes ([sweep]) that
 * expands into one run per combination. The full file-format
 * reference with a worked example per section is docs/config_format.md;
 * the prefetcher spec grammar is docs/prefetcher_specs.md.
 *
 * One table, configKeys(), holds every key: its section and name, its
 * short name (the [sweep] alias and override name), the impsim_cli
 * flag that overrides it, and — inside config_file.cpp — its value
 * type and setter. The file binder, [sweep] axes, CLI override flags
 * and SUBMIT/LEASE override tokens all read it, so adding a key is
 * one row.
 *
 * Precedence, lowest to highest: preset defaults < file keys < CLI
 * overrides (CliOverrides). An override of a swept key collapses that
 * sweep axis to the single overridden value.
 */
#ifndef IMPSIM_COMMON_CONFIG_FILE_HPP
#define IMPSIM_COMMON_CONFIG_FILE_HPP

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "workloads/workload.hpp"

namespace impsim {

/**
 * A parse or binding failure with its source location. what() is
 * preformatted as "origin:line:column: message" (column 0 for
 * whole-line or command-line diagnostics).
 */
class ConfigError : public std::runtime_error
{
  public:
    ConfigError(const std::string &origin, int line, int column,
                const std::string &message);

    const std::string &origin() const { return origin_; }
    int line() const { return line_; }
    int column() const { return column_; }
    /** The message without the location prefix. */
    const std::string &message() const { return message_; }

  private:
    std::string origin_;
    int line_;
    int column_;
    std::string message_;
};

/** One parsed value with its source location. */
struct ConfigValue
{
    enum class Kind { Bool, Int, Float, String, List };

    Kind kind = Kind::String;
    bool boolean = false;       ///< Kind::Bool payload.
    std::int64_t integer = 0;   ///< Kind::Int payload.
    double real = 0.0;          ///< Kind::Float payload.
    std::string text;           ///< Kind::String payload.
    std::vector<ConfigValue> items; ///< Kind::List payload.
    int line = 0;
    int column = 0;

    /** "bool", "int", "float", "string" or "list" (diagnostics). */
    const char *kindName() const;
    /** Value rendered back to config-file syntax (labels, errors). */
    std::string toString() const;
};

/** One `key = value` entry. */
struct ConfigEntry
{
    std::string key;
    ConfigValue value;
};

/** One `[section]` and its entries, in file order. */
struct ConfigSection
{
    std::string name;
    int line = 0;
    std::vector<ConfigEntry> entries;

    /** The value of @p key, or nullptr if absent. */
    const ConfigValue *find(const std::string &key) const;
};

/**
 * A parsed config file. Parsing is purely syntactic; bindExperiment()
 * interprets sections and keys and rejects unknown ones.
 */
class ConfigFile
{
  public:
    /**
     * Parses config text. @p origin names the source in diagnostics.
     * @throws ConfigError on any syntax error.
     */
    static ConfigFile parseString(const std::string &text,
                                  const std::string &origin = "<string>");

    /** Reads and parses @p path. @throws ConfigError (also on I/O). */
    static ConfigFile parseFile(const std::string &path);

    const std::string &origin() const { return origin_; }
    const std::vector<ConfigSection> &sections() const { return sections_; }

    /** The section named @p name, or nullptr if absent. */
    const ConfigSection *find(const std::string &name) const;

  private:
    std::string origin_;
    std::vector<ConfigSection> sections_;
};

/** One row of the config key table, as the binder's callers see it. */
struct ConfigKey
{
    const char *section;
    /** Key within the section; "core.N"/"l2slice.N" stand for any N. */
    const char *key;
    /** Short name: the key's [sweep] alias and override name. */
    const char *alias = nullptr;
    /** The impsim_cli flag that overrides this key. */
    const char *flag = nullptr;
    /** The value a valueless flag sets (--ooo); null: it takes one. */
    const char *flagValue = nullptr;

    /** The key's override and [sweep] name: alias, else section.key. */
    std::string name() const;
};

/** Every config key, [system] first and in section order. */
const std::vector<ConfigKey> &configKeys();

/**
 * Values given on the command line, which override file keys (and
 * collapse matching sweep axes). Nothing set defers to the file.
 */
struct CliOverrides
{
    /**
     * --seed. Typed because a seed spans the full uint64 range, which
     * config values (int64) cannot carry; it collapses a seed axis
     * like any other override.
     */
    std::optional<std::uint64_t> seed;
    /**
     * Every other override as "name=value" text, in command-line
     * order. Names resolve exactly like [sweep] axis names (a short
     * name such as pt, or section.key) and must name a key an
     * impsim_cli flag overrides; values are read like an unquoted
     * config value, strings verbatim, and checked by the binder
     * citing "<command line>". A later override of the same key
     * wins, and only the winner is checked. [prefetch] l1/l2 take a
     * comma list, assigned round-robin per core/tile.
     */
    std::vector<std::string> settings;
};

/**
 * Adds override @p name = @p value to @p cli — how SUBMIT/LEASE
 * override tokens are read. @p name must name an overridable key (see
 * CliOverrides::settings) and the value parse as its type; ranges,
 * names and domains are checked when binding. The seed key sets the
 * typed CliOverrides::seed.
 * @return empty, or why the override is refused.
 */
std::string addOverride(CliOverrides &cli, const std::string &name,
                        const std::string &value);

/**
 * @p cli as "name=value" texts, settings in order and the typed seed
 * last: what addOverride() reads back into an equal CliOverrides.
 */
std::vector<std::string> overrideTexts(const CliOverrides &cli);

/** One expanded run of an experiment. */
struct ExperimentRun
{
    /**
     * "app/preset/Nc[/ooo]" plus one "/axis=value" segment per sweep
     * axis not already covered by the base label — matching the CLI's
     * flag-mode labels, so a single-axis preset sweep is labelled
     * exactly like the equivalent --preset list.
     */
    std::string label;
    SystemConfig cfg;
    AppId app = AppId::Spmv;
    double scale = 1.0;
    std::uint64_t seed = 42;
    /** Run the software-prefetch trace variant (SWPref preset). */
    bool swPrefetch = false;
    /**
     * Trace file to replay when app == AppId::Trace ("trace:<path>"
     * specs). Relative paths are resolved against the config file's
     * directory at bind time, so this is ready to open as-is; the
     * label carries only the basename, keeping CSV output
     * machine-independent.
     */
    std::string tracePath;
};

/** A bound experiment: every sweep combination, in axis order. */
struct Experiment
{
    /** First declared sweep axis varies slowest. */
    std::vector<ExperimentRun> runs;
};

/**
 * Interprets @p file against the config schema and expands its sweep
 * axes. @throws ConfigError citing the offending line for unknown
 * sections or keys, type mismatches, out-of-range values, unknown
 * app/preset/engine names, and malformed sweep axes. "trace:<path>"
 * app specs are validated here too — the trace header is opened and
 * checked (existence, version, core count) at bind time, so --check
 * and SUBMIT surface trace problems with file:line:col diagnostics
 * before any simulation runs.
 */
Experiment bindExperiment(const ConfigFile &file,
                          const CliOverrides &cli = {});

/** Splits "a,b,c" at commas; no trimming, empty segments kept. */
std::vector<std::string> splitCommaList(const std::string &s);

} // namespace impsim

#endif // IMPSIM_COMMON_CONFIG_FILE_HPP
