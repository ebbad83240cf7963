/**
 * @file
 * Config-file parsing and experiment binding.
 */
#include "common/config_file.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/intmath.hpp"
#include "core/prefetcher_registry.hpp"
#include "sim/presets.hpp"
#include "workloads/trace_io.hpp"

namespace impsim {

namespace {

/** Origin used for diagnostics on CLI-provided override values. */
const char *const kCliOrigin = "<command line>";

/** Hard cap on sweep expansion, so a typo can't allocate forever. */
constexpr std::size_t kMaxRuns = 65536;

std::string
formatError(const std::string &origin, int line, int column,
            const std::string &message)
{
    std::ostringstream os;
    os << origin;
    if (line > 0) {
        os << ':' << line;
        if (column > 0)
            os << ':' << column;
    }
    os << ": " << message;
    return os.str();
}

std::string
join(const std::vector<std::string> &parts, const char *sep = ", ")
{
    std::string out;
    for (const std::string &p : parts) {
        if (!out.empty())
            out += sep;
        out += p;
    }
    return out;
}

} // namespace

ConfigError::ConfigError(const std::string &origin, int line, int column,
                         const std::string &message)
    : std::runtime_error(formatError(origin, line, column, message)),
      origin_(origin), line_(line), column_(column), message_(message)
{
}

const char *
ConfigValue::kindName() const
{
    switch (kind) {
      case Kind::Bool:
        return "bool";
      case Kind::Int:
        return "int";
      case Kind::Float:
        return "float";
      case Kind::String:
        return "string";
      case Kind::List:
        return "list";
    }
    return "?";
}

std::string
ConfigValue::toString() const
{
    switch (kind) {
      case Kind::Bool:
        return boolean ? "true" : "false";
      case Kind::Int:
        return std::to_string(integer);
      case Kind::Float: {
        std::ostringstream os;
        os << real;
        return os.str();
      }
      case Kind::String:
        return text;
      case Kind::List: {
        std::string out = "[";
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ", ";
            out += items[i].toString();
        }
        return out + "]";
      }
    }
    return "?";
}

const ConfigValue *
ConfigSection::find(const std::string &key) const
{
    for (const ConfigEntry &e : entries) {
        if (e.key == key)
            return &e.value;
    }
    return nullptr;
}

const ConfigSection *
ConfigFile::find(const std::string &name) const
{
    for (const ConfigSection &s : sections_) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

// ---- Parser -----------------------------------------------------------

namespace {

bool
isIdentChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-' ||
           c == '+';
}

bool
isCommentChar(char c)
{
    return c == '#' || c == ';';
}

/** One source line being parsed. */
struct LineCursor
{
    const std::string &origin;
    const std::string &text;
    int lineno;
    std::size_t i = 0;

    bool done() const { return i >= text.size(); }
    char peek() const { return text[i]; }
    int column() const { return static_cast<int>(i) + 1; }

    void
    skipWs()
    {
        while (!done() && (text[i] == ' ' || text[i] == '\t'))
            ++i;
    }

    /** True once only whitespace / a comment remains. */
    bool
    atEnd()
    {
        skipWs();
        return done() || isCommentChar(text[i]);
    }

    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw ConfigError(origin, lineno, column(), message);
    }
};

/**
 * Classifies a bare (unquoted) token into bool / int / float / string.
 * @p origin, @p line and @p col locate it in diagnostics.
 */
ConfigValue
classifyBare(const std::string &origin, const std::string &token, int line,
             int col)
{
    ConfigValue v;
    v.line = line;
    v.column = col;
    if (token == "true" || token == "false") {
        v.kind = ConfigValue::Kind::Bool;
        v.boolean = (token == "true");
        return v;
    }
    std::size_t digits = (token[0] == '+' || token[0] == '-') ? 1 : 0;
    if (digits < token.size() &&
        token.find_first_not_of("0123456789", digits) == std::string::npos) {
        try {
            v.kind = ConfigValue::Kind::Int;
            v.integer = std::stoll(token);
            return v;
        } catch (const std::exception &) {
            throw ConfigError(origin, line, col,
                              "integer '" + token + "' is out of range");
        }
    }
    try {
        std::size_t used = 0;
        double d = std::stod(token, &used);
        if (used == token.size()) {
            v.kind = ConfigValue::Kind::Float;
            v.real = d;
            return v;
        }
    } catch (const std::exception &) {
    }
    v.kind = ConfigValue::Kind::String;
    v.text = token;
    return v;
}

ConfigValue parseValue(LineCursor &c, bool in_list);

ConfigValue
parseQuoted(LineCursor &c)
{
    ConfigValue v;
    v.kind = ConfigValue::Kind::String;
    v.line = c.lineno;
    v.column = c.column();
    ++c.i; // opening quote
    while (!c.done()) {
        char ch = c.text[c.i];
        if (ch == '"') {
            ++c.i;
            return v;
        }
        if (ch == '\\') {
            ++c.i;
            if (c.done())
                break;
            char esc = c.text[c.i];
            if (esc == '"' || esc == '\\')
                v.text += esc;
            else if (esc == 'n')
                v.text += '\n';
            else if (esc == 't')
                v.text += '\t';
            else
                c.fail(std::string("unknown escape '\\") + esc +
                       "' in string");
            ++c.i;
            continue;
        }
        v.text += ch;
        ++c.i;
    }
    throw ConfigError(c.origin, v.line, v.column, "unterminated string");
}

ConfigValue
parseList(LineCursor &c)
{
    ConfigValue v;
    v.kind = ConfigValue::Kind::List;
    v.line = c.lineno;
    v.column = c.column();
    ++c.i; // opening bracket
    for (;;) {
        c.skipWs();
        if (c.done() || isCommentChar(c.peek()))
            throw ConfigError(c.origin, v.line, v.column,
                              "unterminated list (lists are single-line)");
        if (c.peek() == ']') {
            ++c.i;
            return v;
        }
        v.items.push_back(parseValue(c, /*in_list=*/true));
        c.skipWs();
        if (c.done() || isCommentChar(c.peek()))
            throw ConfigError(c.origin, v.line, v.column,
                              "unterminated list (lists are single-line)");
        if (c.peek() == ',') {
            ++c.i;
            continue;
        }
        if (c.peek() != ']')
            c.fail("expected ',' or ']' in list");
    }
}

ConfigValue
parseValue(LineCursor &c, bool in_list)
{
    c.skipWs();
    if (c.done() || isCommentChar(c.peek()))
        c.fail("missing value");
    if (c.peek() == '"')
        return parseQuoted(c);
    if (c.peek() == '[')
        return parseList(c);

    // Bare token: one whitespace-free word (quote values that need
    // spaces); inside a list it also stops at ',' and ']'.
    int col = c.column();
    std::size_t start = c.i;
    while (!c.done()) {
        char ch = c.text[c.i];
        if (ch == ' ' || ch == '\t' || isCommentChar(ch) ||
            (in_list && (ch == ',' || ch == ']')))
            break;
        ++c.i;
    }
    std::string token = c.text.substr(start, c.i - start);
    if (token.empty())
        throw ConfigError(c.origin, c.lineno, col, "missing value");
    return classifyBare(c.origin, token, c.lineno, col);
}

} // namespace

ConfigFile
ConfigFile::parseString(const std::string &text, const std::string &origin)
{
    ConfigFile file;
    file.origin_ = origin;

    std::istringstream in(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        if (!raw.empty() && raw.back() == '\r')
            raw.pop_back();
        LineCursor c{origin, raw, lineno};
        if (c.atEnd())
            continue;

        if (c.peek() == '[') {
            int col = c.column();
            std::size_t close = raw.find(']', c.i);
            if (close == std::string::npos)
                c.fail("unterminated section header");
            std::string name = raw.substr(c.i + 1, close - c.i - 1);
            if (name.empty() ||
                !std::all_of(name.begin(), name.end(), isIdentChar))
                throw ConfigError(origin, lineno, col,
                                  "bad section name '" + name + "'");
            for (const ConfigSection &s : file.sections_) {
                if (s.name == name)
                    throw ConfigError(
                        origin, lineno, col,
                        "duplicate section [" + name + "] (first at line " +
                            std::to_string(s.line) + ")");
            }
            c.i = close + 1;
            if (!c.atEnd())
                c.fail("trailing characters after section header");
            ConfigSection sec;
            sec.name = name;
            sec.line = lineno;
            file.sections_.push_back(std::move(sec));
            continue;
        }

        // key = value
        int key_col = c.column();
        std::size_t start = c.i;
        while (!c.done() && isIdentChar(c.peek()))
            ++c.i;
        std::string key = raw.substr(start, c.i - start);
        if (key.empty())
            c.fail("expected a section header or 'key = value'");
        c.skipWs();
        if (c.done() || c.peek() != '=')
            c.fail("expected '=' after key '" + key + "'");
        ++c.i;
        if (file.sections_.empty())
            throw ConfigError(origin, lineno, key_col,
                              "key '" + key +
                                  "' appears before any [section]");
        ConfigSection &sec = file.sections_.back();
        for (const ConfigEntry &e : sec.entries) {
            if (e.key == key)
                throw ConfigError(origin, lineno, key_col,
                                  "duplicate key '" + key + "' in [" +
                                      sec.name + "] (first at line " +
                                      std::to_string(e.value.line) + ")");
        }
        ConfigValue value = parseValue(c, /*in_list=*/false);
        if (!c.atEnd())
            c.fail("trailing characters after value");
        sec.entries.push_back(ConfigEntry{key, std::move(value)});
    }
    return file;
}

ConfigFile
ConfigFile::parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ConfigError(path, 0, 0, "cannot open config file");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseString(buf.str(), path);
}


// ---- The key table ----------------------------------------------------

namespace {

/** A (section, key) target inside the schema. */
struct Path
{
    std::string section;
    std::string key;

    bool
    operator==(const Path &o) const
    {
        return section == o.section && key == o.key;
    }
};

struct Row;

/** One value to apply, with the origin its diagnostics should cite. */
struct Setting
{
    std::string origin;
    Path path;
    ConfigValue value;
    const Row *row = nullptr; ///< The table row `path` names.
    /** The N of a "core.N"/"l2slice.N" key. */
    std::optional<std::uint32_t> index = {};
    bool fromCli = false; ///< A CliOverrides override.
};

/**
 * Bind-scoped memo of probed trace headers, so a sweep expanding the
 * same "trace:<path>" into many combinations opens the file once.
 * Probing happens at bind time on purpose: that is what gives
 * `--check` and SUBMIT their early file:line:col trace diagnostics,
 * and what turns a missing trace on a fabric worker into a clean
 * LEASEFAIL (the worker re-binds the shipped config text).
 */
struct TraceProbeCache
{
    std::map<std::string, TraceSummary> ok;
    std::map<std::string, std::string> bad; ///< path -> diagnostic
};

/**
 * The run being bound plus what only the binder needs; the extra
 * state is sliced off when the run is emitted.
 */
struct Bound : ExperimentRun
{
    /** The resolved [system] preset; none labels the run "custom". */
    std::optional<ConfigPreset> preset;
    /** Run-label tags of [prefetch] l1/l2 overrides. */
    std::string tags;
    TraceProbeCache *traces = nullptr;
};

/**
 * What a key's value must be; checkValue() enforces it before the
 * setter runs, so setters read the ConfigValue as its type says.
 */
struct ValueType
{
    enum Kind
    {
        // The int kinds come first.
        Uint32,   ///< int in 0 .. 2^32-1
        Positive, ///< int in 1 .. 2^32-1
        Pow2,     ///< power of two in 1 .. kLineSize (a sector size)
        Uint64,   ///< non-negative int
        Number,   ///< int or float
        Bool,
        String,
        Enum, ///< a string among names, listed in the C++ enum's order
        List, ///< its setter checks the list's shape
    };
    Kind kind;
    std::vector<std::string> names = {}; ///< Enum only.
};

/** How the binder treats a key beyond checking and setting it. */
enum class Role
{
    Plain,
    /**
     * Picks the base config, so it is resolved before that is built:
     * CLI > sweep axis > file, and only the winning value is checked.
     * Named by the base run label.
     */
    Structural,
    /** Named by the base run label ("app/preset/Nc"). */
    Labelled,
};

/** Sets a checked value; throws for values outside the key's domain. */
using Setter = void (*)(Bound &b, const Setting &s);

struct Row
{
    ConfigKey id;
    ValueType type;
    Setter set;
    Role role = Role::Plain;
};

std::string
pathBaseName(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Run labels are CSV cells, so commas read as '|'. */
std::string
commasToPipes(std::string s)
{
    std::replace(s.begin(), s.end(), ',', '|');
    return s;
}

/**
 * Resolves a relative trace path against the directory of the config
 * file that names it (pseudo-origins like "<command line>" resolve
 * against the CWD). A worker re-binding the same config text with the
 * same origin computes the same string, so a lease's trace lookup is
 * reproducible — just against the worker's local filesystem.
 */
std::string
resolveTracePath(const std::string &origin, const std::string &rel)
{
    if (rel.empty() || rel[0] == '/')
        return rel;
    if (origin.empty() || origin[0] == '<')
        return rel;
    std::size_t slash = origin.find_last_of('/');
    if (slash == std::string::npos)
        return rel;
    return origin.substr(0, slash + 1) + rel;
}

[[noreturn]] void
failAt(const Setting &s, const std::string &message)
{
    throw ConfigError(s.origin, s.value.line, s.value.column, message);
}

std::string
describeKey(const Setting &s)
{
    return "[" + s.path.section + "] " + s.path.key;
}

std::uint32_t
u32(const Setting &s)
{
    return static_cast<std::uint32_t>(s.value.integer);
}

/** The index of @p s's value among its Enum row's names. */
std::size_t
choiceOf(const Setting &s)
{
    const std::vector<std::string> &names = s.row->type.names;
    auto it = std::find(names.begin(), names.end(), s.value.text);
    if (it != names.end())
        return static_cast<std::size_t>(it - names.begin());
    // Short lists read as a sentence, longer ones as a list.
    std::vector<std::string> head(names.begin(), names.end() - 1);
    const std::string &last = names.back();
    failAt(s, describeKey(s) + " must be " +
                  (head.size() < 3
                       ? join(head) + " or " + last + ","
                       : "one of " + join(head) + ", " + last + ";") +
                  " got '" + s.value.text + "'");
}

// ---- Setters with checks beyond the value type ------------------------

void
setCores(Bound &b, const Setting &s)
{
    std::uint32_t cores = u32(s);
    std::uint32_t d = isqrt(cores);
    if (d * d != cores)
        failAt(s, describeKey(s) +
                      " must be a perfect square (mesh NoC), got " +
                      std::to_string(cores));
    b.cfg.numCores = cores;
}

void
setPreset(Bound &b, const Setting &s)
{
    ConfigPreset preset;
    if (!parsePresetName(s.value.text, preset)) {
        std::vector<std::string> known;
        for (ConfigPreset p : allPresets())
            known.push_back(presetName(p));
        failAt(s, "unknown preset '" + s.value.text + "' (known: " +
                      join(known) + ")");
    }
    b.preset = preset;
}

/**
 * [system] app: a built-in kernel name or a "trace:<path>" replay
 * spec. Trace specs are validated on the spot: the header is probed
 * (memoized across sweep combinations) and its core count checked
 * against this combination's, so every problem surfaces at bind time
 * with the app key's location.
 */
void
setApp(Bound &b, const Setting &s)
{
    const std::string &name = s.value.text;
    if (!isTraceAppSpec(name)) {
        if (!parseAppName(name, b.app)) {
            std::vector<std::string> known;
            for (AppId a : kAllApps)
                known.push_back(appName(a));
            known.push_back("trace:<path>");
            failAt(s, "unknown app '" + name + "' (known: " + join(known) +
                          ")");
        }
        b.tracePath.clear();
        return;
    }
    std::string rel = traceAppPath(name);
    if (rel.empty())
        failAt(s, "trace app spec needs a file: trace:<path>");
    // The OS reads a path only up to its first NUL: a different file.
    if (rel.find('\0') != std::string::npos)
        failAt(s, "trace path contains a NUL byte");
    std::string path = resolveTracePath(s.origin, rel);
    TraceProbeCache &traces = *b.traces;
    auto okIt = traces.ok.find(path);
    if (okIt == traces.ok.end()) {
        auto badIt = traces.bad.find(path);
        if (badIt == traces.bad.end()) {
            try {
                okIt = traces.ok.emplace(path, probeTraceHeader(path))
                           .first;
            } catch (const TraceError &e) {
                badIt = traces.bad.emplace(path, e.what()).first;
            }
        }
        if (badIt != traces.bad.end())
            failAt(s, badIt->second);
    }
    const TraceSummary &sum = okIt->second;
    if (sum.numCores != b.cfg.numCores)
        failAt(s, "trace '" + rel + "' was recorded for " +
                      std::to_string(sum.numCores) +
                      " cores, but this run has " +
                      std::to_string(b.cfg.numCores) +
                      " (set [system] cores = " +
                      std::to_string(sum.numCores) + ")");
    b.app = AppId::Trace;
    b.tracePath = std::move(path);
}

void
setScale(Bound &b, const Setting &s)
{
    double scale = s.value.kind == ConfigValue::Kind::Int
                       ? static_cast<double>(s.value.integer)
                       : s.value.real;
    if (scale <= 0.0)
        failAt(s, describeKey(s) + " must be positive");
    // NaN and infinity pass the sign check but would size the
    // workload's arrays through an undefined conversion.
    if (!std::isfinite(scale))
        failAt(s, describeKey(s) + " must be finite, got " +
                      s.value.toString());
    // Past this the generators' 32-bit sizes wrap (a hang or an
    // abort, not a diagnostic).
    if (scale > kMaxWorkloadScale)
        failAt(s, describeKey(s) + " must be at most " +
                      std::to_string(kMaxWorkloadScale) + ", got " +
                      s.value.toString());
    b.scale = scale;
}

void
setPageBytes(Bound &b, const Setting &s)
{
    if (s.value.integer != 4096 && s.value.integer != 2097152)
        failAt(s, describeKey(s) + " must be 4096 or 2097152 "
                                   "(4 KiB or 2 MiB pages)");
    b.cfg.tlb.pageBytes = static_cast<std::uint64_t>(s.value.integer);
}

void
setShifts(Bound &b, const Setting &s)
{
    ImpConfig &imp = b.cfg.imp;
    if (s.value.kind != ConfigValue::Kind::List ||
        s.value.items.size() != imp.shifts.size())
        failAt(s, describeKey(s) + " needs a list of exactly " +
                      std::to_string(imp.shifts.size()) +
                      " ints (Table 2 shift candidates)");
    for (std::size_t i = 0; i < s.value.items.size(); ++i) {
        const ConfigValue &item = s.value.items[i];
        if (item.kind != ConfigValue::Kind::Int || item.integer < -63 ||
            item.integer > 63)
            throw ConfigError(s.origin, item.line, item.column,
                              "shift values must be ints in -63 .. 63 "
                              "(negative = right shift)");
        imp.shifts[i] = static_cast<std::int8_t>(item.integer);
    }
}

/** Checks every engine name of a prefetcher spec ("imp+stream"). */
void
checkSpec(const Setting &s, const std::string &spec)
{
    const std::vector<std::string> known = prefetcherNames();
    for (const std::string &name : splitPrefetcherSpec(spec)) {
        if (name.empty())
            continue; // blank segments build no engine
        if (std::find(known.begin(), known.end(), name) == known.end())
            failAt(s, "unknown prefetcher '" + name + "' in spec '" + spec +
                          "' (known: " + join(known) + ")");
    }
}

/**
 * [prefetch] l1 or l2 into @p global. A file or axis value is one
 * spec. An override is SPEC[,SPEC...]: one stack sets @p global,
 * several are assigned round-robin into @p perCore; either way the
 * file's per-core keys are dropped, and the list is tagged on the run
 * label as "/<tag><list>".
 */
void
setSpecs(Bound &b, const Setting &s, std::string &global,
         std::vector<std::string> &perCore, const char *tag)
{
    const std::string &list = s.value.text;
    if (!s.fromCli) {
        checkSpec(s, list);
        global = list;
        return;
    }
    std::vector<std::string> stacks = splitCommaList(list);
    for (const std::string &stack : stacks) {
        if (stack.empty())
            failAt(s, std::string(s.row->id.flag) +
                          " has an empty stack in '" + list + "'");
        checkSpec(s, stack);
    }
    perCore.clear();
    if (stacks.size() == 1) {
        global = stacks[0];
    } else {
        perCore.resize(b.cfg.numCores);
        for (std::uint32_t c = 0; c < b.cfg.numCores; ++c)
            perCore[c] = stacks[c % stacks.size()];
    }
    b.tags += "/" + std::string(tag) + commasToPipes(list);
}

/** [prefetch] core.N / l2slice.N; apply() has checked N < cores. */
void
setPerCoreSpec(const Setting &s, std::vector<std::string> &specs)
{
    checkSpec(s, s.value.text);
    if (specs.size() < *s.index + 1)
        specs.resize(*s.index + 1);
    specs[*s.index] = s.value.text;
}

/**
 * The config key table: one row per key, in section order. The
 * structural rows come first, in the order they are resolved.
 */
const std::vector<Row> &
rows()
{
    using T = ValueType;
    static const T cross{T::Enum, {"default", "drop", "stall", "translate"}};
    static const std::vector<Row> table = {
        {{"system", "cores", "cores", "--cores"}, {T::Positive}, setCores,
         Role::Structural},
        {{"system", "core_model", nullptr, "--ooo", "ooo"},
         {T::Enum, {"inorder", "ooo"}},
         [](auto &b, auto &s) {
             b.cfg.coreModel = static_cast<CoreModel>(choiceOf(s));
         },
         Role::Structural},
        {{"system", "preset", "preset", "--preset"}, {T::String}, setPreset,
         Role::Structural},
        {{"system", "app", "app", "--app"}, {T::String}, setApp,
         Role::Labelled},
        {{"system", "scale", "scale", "--scale"}, {T::Number}, setScale},
        {{"system", "seed", "seed", "--seed"}, {T::Uint64},
         [](auto &b, auto &s) {
             b.seed = static_cast<std::uint64_t>(s.value.integer);
         }},
        {{"system", "dram_model"}, {T::Enum, {"simple", "ddr3"}},
         [](auto &b, auto &s) {
             b.cfg.dramModel = static_cast<DramModelKind>(choiceOf(s));
         }},
        {{"system", "partial"}, {T::Enum, {"off", "noc", "noc+dram"}},
         [](auto &b, auto &s) {
             b.cfg.partial = static_cast<PartialMode>(choiceOf(s));
         }},
        // [imp]: Table 2
        {{"imp", "pt_entries", "pt", "--pt"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.imp.ptEntries = u32(s); }},
        {{"imp", "ipd_entries", "ipd", "--ipd"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.imp.ipdEntries = u32(s); }},
        {{"imp", "base_addr_slots"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.imp.baseAddrSlots = u32(s); }},
        {{"imp", "shifts"}, {T::List}, setShifts},
        {{"imp", "max_prefetch_distance", "distance", "--distance"},
         {T::Positive},
         [](auto &b, auto &s) { b.cfg.imp.maxPrefetchDistance = u32(s); }},
        {{"imp", "max_indirect_ways"}, {T::Uint32},
         [](auto &b, auto &s) { b.cfg.imp.maxIndirectWays = u32(s); }},
        {{"imp", "max_indirect_levels"}, {T::Uint32},
         [](auto &b, auto &s) { b.cfg.imp.maxIndirectLevels = u32(s); }},
        {{"imp", "stream_threshold"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.imp.streamThreshold = u32(s); }},
        {{"imp", "indirect_threshold"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.imp.indirectThreshold = u32(s); }},
        {{"imp", "indirect_counter_max"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.imp.indirectCounterMax = u32(s); }},
        {{"imp", "backoff_initial"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.imp.backoffInitial = u32(s); }},
        {{"imp", "backoff_max"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.imp.backoffMax = u32(s); }},
        {{"imp", "pc_resync"}, {T::Bool},
         [](auto &b, auto &s) { b.cfg.imp.pcResync = s.value.boolean; }},
        {{"imp", "secondary_indirection"}, {T::Bool},
         [](auto &b, auto &s) {
             b.cfg.imp.secondaryIndirection = s.value.boolean;
         }},
        // [gp]: the Granularity Predictor (Table 2)
        {{"gp", "samples"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.gp.samples = u32(s); }},
        {{"gp", "l1_sector_bytes"}, {T::Pow2},
         [](auto &b, auto &s) { b.cfg.gp.l1SectorBytes = u32(s); }},
        {{"gp", "l2_sector_bytes"}, {T::Pow2},
         [](auto &b, auto &s) { b.cfg.gp.l2SectorBytes = u32(s); }},
        {{"gp", "dram_min_bytes"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.gp.dramMinBytes = u32(s); }},
        // [stream]: L1 engines, then the L2-attached ones
        {{"stream", "degree"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.stream.prefetchDegree = u32(s); }},
        {{"stream", "max_stride_bytes"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.stream.maxStrideBytes = u32(s); }},
        {{"stream", "l2_degree"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.l2Stream.prefetchDegree = u32(s); }},
        {{"stream", "l2_max_stride_bytes"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.l2Stream.maxStrideBytes = u32(s); }},
        {{"ghb", "history_entries"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.ghb.historyEntries = u32(s); }},
        {{"ghb", "index_entries"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.ghb.indexEntries = u32(s); }},
        {{"ghb", "degree"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.ghb.degree = u32(s); }},
        {{"tlb", "enable"}, {T::Bool},
         [](auto &b, auto &s) { b.cfg.tlb.enable = s.value.boolean; }},
        {{"tlb", "l1_entries"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.tlb.l1Entries = u32(s); }},
        {{"tlb", "l1_ways"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.tlb.l1Ways = u32(s); }},
        {{"tlb", "l2_entries"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.tlb.l2Entries = u32(s); }},
        {{"tlb", "l2_ways"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.tlb.l2Ways = u32(s); }},
        {{"tlb", "l2_latency"}, {T::Positive},
         [](auto &b, auto &s) { b.cfg.tlb.l2LatencyCycles = u32(s); }},
        {{"tlb", "page_bytes", "page"}, {T::Uint64}, setPageBytes},
        {{"tlb", "prefetch_cross"}, cross,
         [](auto &b, auto &s) {
             b.cfg.tlb.prefetchCross = static_cast<TlbPfCross>(choiceOf(s));
         }},
        {{"tlb", "imp_prefetch_cross"}, cross,
         [](auto &b, auto &s) {
             b.cfg.tlb.impCross = static_cast<TlbPfCross>(choiceOf(s));
         }},
        {{"tlb", "stream_prefetch_cross"}, cross,
         [](auto &b, auto &s) {
             b.cfg.tlb.streamCross = static_cast<TlbPfCross>(choiceOf(s));
         }},
        {{"tlb", "ghb_prefetch_cross"}, cross,
         [](auto &b, auto &s) {
             b.cfg.tlb.ghbCross = static_cast<TlbPfCross>(choiceOf(s));
         }},
        // [prefetch]: engine attachment
        {{"prefetch", "l1", "l1", "--prefetcher"}, {T::String},
         [](auto &b, auto &s) {
             setSpecs(b, s, b.cfg.prefetcherSpec, b.cfg.corePrefetcherSpecs,
                      "");
         }},
        {{"prefetch", "l2", "l2", "--l2-prefetcher"}, {T::String},
         [](auto &b, auto &s) {
             setSpecs(b, s, b.cfg.l2PrefetcherSpec,
                      b.cfg.l2SlicePrefetcherSpecs, "l2:");
         }},
        {{"prefetch", "core.N"}, {T::String},
         [](auto &b, auto &s) {
             setPerCoreSpec(s, b.cfg.corePrefetcherSpecs);
         }},
        {{"prefetch", "l2slice.N"}, {T::String},
         [](auto &b, auto &s) {
             setPerCoreSpec(s, b.cfg.l2SlicePrefetcherSpecs);
         }},
    };
    return table;
}

// ---- Reading the table ------------------------------------------------

/**
 * True if @p key is one of @p row's keys: the key itself, or for an
 * indexed row ("core.N") its prefix and a 32-bit N, kept in @p index.
 */
bool
matchKey(const Row &row, const std::string &key,
         std::optional<std::uint32_t> &index)
{
    const std::string pattern = row.id.key;
    const std::size_t n = pattern.size() - 1; // the prefix, if indexed
    if (pattern.size() < 2 || pattern.compare(n - 1, 2, ".N") != 0)
        return key == pattern;
    if (key.size() == n || key.compare(0, n, pattern, 0, n) != 0 ||
        key.find_first_not_of("0123456789", n) != std::string::npos)
        return false;
    errno = 0;
    unsigned long long v = std::strtoull(key.c_str() + n, nullptr, 10);
    if (errno == ERANGE || v > std::numeric_limits<std::uint32_t>::max())
        return false;
    index = static_cast<std::uint32_t>(v);
    return true;
}

/** Points @p s at the row its path names. @return false if none does. */
bool
resolve(Setting &s)
{
    for (const Row &r : rows()) {
        if (s.path.section == r.id.section &&
            matchKey(r, s.path.key, s.index)) {
            s.row = &r;
            return true;
        }
    }
    return false;
}

/**
 * Resolves a [sweep] axis or override name — "section.key" or a row's
 * alias — to a path. @return false for a bare name that is no alias.
 */
bool
resolveName(const std::string &name, Path &out)
{
    std::size_t dot = name.find('.');
    if (dot != std::string::npos) {
        out = Path{name.substr(0, dot), name.substr(dot + 1)};
        return true;
    }
    for (const Row &r : rows()) {
        if (r.id.alias && name == r.id.alias) {
            out = Path{r.id.section, r.id.key};
            return true;
        }
    }
    return false;
}

/** The row CliOverrides::seed overrides. */
const Row &
seedRow()
{
    static const Row &row = *std::find_if(
        rows().begin(), rows().end(),
        [](const Row &r) { return std::strcmp(r.id.key, "seed") == 0; });
    return row;
}

/**
 * Throws unless @p s's value is of the kind its row's type needs and,
 * with @p ranges, within the type's range. Enum names are checked by
 * the setter, through choiceOf().
 */
void
checkValue(const Setting &s, bool ranges)
{
    using K = ConfigValue::Kind;
    const ValueType::Kind type = s.row->type.kind;
    const K kind = s.value.kind;
    const char *needs = nullptr;
    if (type <= ValueType::Uint64 && kind != K::Int)
        needs = "an int";
    else if (type == ValueType::Number && kind != K::Int &&
             kind != K::Float)
        needs = "a number";
    else if (type == ValueType::Bool && kind != K::Bool)
        needs = "true or false";
    else if ((type == ValueType::String || type == ValueType::Enum) &&
             kind != K::String)
        needs = "a string";
    if (needs)
        failAt(s, describeKey(s) + " needs " + needs + ", got " +
                      s.value.kindName() + " '" + s.value.toString() + "'");
    if (!ranges || type > ValueType::Uint64)
        return;
    const std::int64_t v = s.value.integer;
    if (type == ValueType::Uint64) {
        if (v < 0)
            failAt(s, describeKey(s) + " needs a non-negative int, got " +
                          std::to_string(v));
        return;
    }
    const int min = type == ValueType::Uint32 ? 0 : 1;
    if (v < min || v > std::numeric_limits<std::uint32_t>::max())
        failAt(s, describeKey(s) + " is out of range (" +
                      std::to_string(min) + " .. 2^32-1), got " +
                      std::to_string(v));
    if (type == ValueType::Pow2 && (!isPow2(v) || v > kLineSize))
        failAt(s, describeKey(s) + " must be a power of two <= " +
                      std::to_string(kLineSize) + ", got " +
                      std::to_string(v));
}

/**
 * Checks @p s against its row — a per-core key's N first, then the
 * value — and runs the row's setter on @p b.
 */
void
apply(const Setting &s, Bound &b)
{
    if (s.index && *s.index >= b.cfg.numCores)
        failAt(s, describeKey(s) + " is out of range for a " +
                      std::to_string(b.cfg.numCores) + "-core machine");
    checkValue(s, true);
    s.row->set(b, s);
}

/**
 * Points @p s at the key override @p name names: resolved like a
 * [sweep] axis name, and one an impsim_cli flag overrides.
 * @return false for any other name.
 */
bool
resolveOverride(const std::string &name, Setting &s)
{
    s.origin = kCliOrigin;
    s.fromCli = true;
    return resolveName(name, s.path) && resolve(s) && s.row->id.flag;
}

/**
 * Reads override text as a value of @p row's type: strings verbatim,
 * anything else like an unquoted config value.
 */
ConfigValue
overrideValue(const Row &row, const std::string &text)
{
    if (text.empty() || row.type.kind == ValueType::String ||
        row.type.kind == ValueType::Enum) {
        ConfigValue v;
        v.text = text;
        return v;
    }
    return classifyBare(kCliOrigin, text, 0, 0);
}

/**
 * @p cli's text overrides as settings citing the command line, one
 * per key with a later one winning (as a repeated flag does), in
 * table order.
 */
std::vector<Setting>
cliSettings(const CliOverrides &cli)
{
    std::vector<Setting> out;
    for (const std::string &text : cli.settings) {
        Setting s;
        std::size_t eq = text.find('=');
        if (eq == std::string::npos ||
            !resolveOverride(text.substr(0, eq), s))
            throw ConfigError(kCliOrigin, 0, 0,
                              "override '" + text +
                                  "' names no overridable key");
        s.value = overrideValue(*s.row, text.substr(eq + 1));
        auto same =
            std::find_if(out.begin(), out.end(),
                         [&](const Setting &o) { return o.path == s.path; });
        if (same != out.end())
            *same = std::move(s);
        else
            out.push_back(std::move(s));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Setting &a, const Setting &b) {
                         return a.row < b.row;
                     });
    return out;
}

/** One [sweep] axis. */
struct Axis
{
    std::string displayKey; ///< As written in the file (label suffix).
    Setting key;            ///< Origin and resolved key; no value.
    ConfigValue values;     ///< Kind::List, non-empty.
};

} // namespace

std::string
ConfigKey::name() const
{
    return alias ? alias : std::string(section) + "." + key;
}

const std::vector<ConfigKey> &
configKeys()
{
    static const std::vector<ConfigKey> keys = [] {
        std::vector<ConfigKey> out;
        for (const Row &r : rows())
            out.push_back(r.id);
        return out;
    }();
    return keys;
}

std::string
addOverride(CliOverrides &cli, const std::string &name,
            const std::string &value)
{
    Setting s;
    if (!resolveOverride(name, s))
        return "names no overridable key";
    if (s.row == &seedRow()) {
        // Typed: digits only, the full uint64 range.
        errno = 0;
        unsigned long long seed = std::strtoull(value.c_str(), nullptr, 10);
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos ||
            errno == ERANGE)
            return describeKey(s) + " needs an int in 0 .. 2^64-1, got '" +
                   value + "'";
        cli.seed = seed;
        return {};
    }
    try {
        s.value = overrideValue(*s.row, value);
        checkValue(s, false);
    } catch (const ConfigError &e) {
        return e.message();
    }
    cli.settings.push_back(name + "=" + value);
    return {};
}

std::vector<std::string>
overrideTexts(const CliOverrides &cli)
{
    std::vector<std::string> out = cli.settings;
    if (cli.seed)
        out.push_back(seedRow().id.name() + "=" + std::to_string(*cli.seed));
    return out;
}

std::vector<std::string>
splitCommaList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = s.find(',', start);
        out.push_back(s.substr(start, comma - start));
        if (comma == std::string::npos)
            return out;
        start = comma + 1;
    }
}

// ---- Binder -----------------------------------------------------------

Experiment
bindExperiment(const ConfigFile &file, const CliOverrides &cli)
{
    const std::string &origin = file.origin();

    // 1. Resolve every section and key against the table, rejecting
    //    unknown ones up front, with locations.
    std::vector<std::string> sections;
    for (const Row &r : rows()) {
        if (sections.empty() || sections.back() != r.id.section)
            sections.push_back(r.id.section);
    }
    sections.push_back("sweep");
    std::vector<Setting> file_settings;
    for (const ConfigSection &sec : file.sections()) {
        if (std::find(sections.begin(), sections.end(), sec.name) ==
            sections.end())
            throw ConfigError(origin, sec.line, 0,
                              "unknown section [" + sec.name +
                                  "] (known: " + join(sections) + ")");
        if (sec.name == "sweep")
            continue; // axis keys are validated below
        for (const ConfigEntry &e : sec.entries) {
            Setting s{origin, Path{sec.name, e.key}, e.value};
            if (!resolve(s))
                throw ConfigError(origin, e.value.line, 0,
                                  "unknown key '" + e.key + "' in [" +
                                      sec.name + "]");
            file_settings.push_back(std::move(s));
        }
    }

    // 2. Resolve the sweep axes.
    std::vector<Axis> axes;
    if (const ConfigSection *sweep = file.find("sweep")) {
        for (const ConfigEntry &e : sweep->entries) {
            Axis axis;
            axis.displayKey = e.key;
            axis.key.origin = origin;
            if (!resolveName(e.key, axis.key.path)) {
                std::vector<std::string> names;
                for (const Row &r : rows()) {
                    if (r.id.alias)
                        names.push_back(r.id.alias);
                }
                std::sort(names.begin(), names.end());
                throw ConfigError(origin, e.value.line, 0,
                                  "unknown sweep axis '" + e.key +
                                      "' (use section.key or one of: " +
                                      join(names) + ")");
            }
            if (!resolve(axis.key))
                throw ConfigError(origin, e.value.line, 0,
                                  "sweep axis '" + e.key +
                                      "' names no known knob");
            if (e.value.kind != ConfigValue::Kind::List ||
                e.value.items.empty())
                throw ConfigError(origin, e.value.line, 0,
                                  "sweep axis '" + e.key +
                                      "' needs a non-empty list");
            for (const Axis &prev : axes) {
                if (prev.key.path == axis.key.path)
                    throw ConfigError(origin, e.value.line, 0,
                                      "sweep axis '" + e.key +
                                          "' repeats axis '" +
                                          prev.displayKey + "'");
            }
            axis.values = e.value;
            axes.push_back(std::move(axis));
        }
    }

    // 3. CLI overrides as settings; any matching sweep axis collapses.
    const std::vector<Setting> cli_settings = cliSettings(cli);
    axes.erase(std::remove_if(axes.begin(), axes.end(),
                              [&](const Axis &axis) {
                                  if (cli.seed && axis.key.row == &seedRow())
                                      return true;
                                  for (const Setting &s : cli_settings) {
                                      if (s.path == axis.key.path)
                                          return true;
                                  }
                                  return false;
                              }),
               axes.end());

    std::size_t total = 1;
    for (const Axis &axis : axes) {
        std::size_t n = axis.values.items.size();
        if (total > kMaxRuns / n)
            throw ConfigError(origin, axis.values.line, 0,
                              "sweep expands to more than " +
                                  std::to_string(kMaxRuns) + " runs");
        total *= n;
    }

    // 4. Expand: the first declared axis varies slowest.
    Experiment exp;
    TraceProbeCache traces; // one header probe per file, not per combo
    std::vector<std::size_t> idx(axes.size(), 0);
    for (std::size_t combo = 0; combo < total; ++combo) {
        std::vector<Setting> axis_settings;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            axis_settings.push_back(axes[a].key);
            axis_settings.back().value = axes[a].values.items[idx[a]];
        }
        const std::array<const std::vector<Setting> *, 3> by_precedence{
            &cli_settings, &axis_settings, &file_settings};

        Bound b;
        b.traces = &traces;
        // Structural keys pick the base config: CLI > this combination
        // > file scalar, and only the winner is checked.
        for (const Row &r : rows()) {
            if (r.role != Role::Structural)
                continue;
            for (const std::vector<Setting> *list : by_precedence) {
                auto s = std::find_if(
                    list->begin(), list->end(),
                    [&](const Setting &o) { return o.row == &r; });
                if (s != list->end()) {
                    apply(*s, b);
                    break;
                }
            }
        }
        if (b.preset)
            b.cfg = makePreset(*b.preset, b.cfg.numCores, b.cfg.coreModel);
        // Everything else lowest precedence first, so the last wins.
        for (auto list = by_precedence.rbegin(); list != by_precedence.rend();
             ++list) {
            for (const Setting &s : **list) {
                if (s.row->role != Role::Structural)
                    apply(s, b);
            }
        }
        if (cli.seed)
            b.seed = *cli.seed;

        b.swPrefetch = b.preset && presetWantsSwPrefetch(*b.preset);
        // Trace runs are labelled by basename so CSVs don't depend on
        // where the trace lives on this machine.
        std::string appLabel = appName(b.app);
        if (b.app == AppId::Trace)
            appLabel = commasToPipes(appLabel + ":" +
                                     pathBaseName(b.tracePath));
        b.label = appLabel + "/" +
                  (b.preset ? presetName(*b.preset) : "custom") + "/" +
                  std::to_string(b.cfg.numCores) + "c" +
                  (b.cfg.coreModel == CoreModel::OutOfOrder ? "/ooo" : "");
        for (std::size_t a = 0; a < axes.size(); ++a) {
            if (axes[a].key.row->role != Role::Plain)
                continue; // already part of the base label
            b.label += "/" + axes[a].displayKey + "=" +
                       axes[a].values.items[idx[a]].toString();
        }
        b.label += b.tags; // CLI engine overrides, as flag mode tags them
        exp.runs.push_back(std::move(b));

        // Odometer step, last axis fastest.
        for (std::size_t a = axes.size(); a-- > 0;) {
            if (++idx[a] < axes[a].values.items.size())
                break;
            idx[a] = 0;
        }
    }
    return exp;
}

} // namespace impsim
