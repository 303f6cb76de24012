/**
 * @file
 * Performance-trajectory tool for the perf-smoke CI job.
 *
 * BENCH_PERF.json (written by bench/perf_render, schema
 * "texpim-perf-v1" through "texpim-perf-v3" — v2 adds per-run
 * record_bytes_decoded and a sampler field, v3 an optional "sequence"
 * object for multi-frame camera-path runs) is a single snapshot; this
 * tool turns the snapshots into a trajectory:
 *
 *   perf_history append <BENCH_PERF.json> <history.jsonl> [label=...]
 *       Append one summary line (JSONL) for the snapshot: bench
 *       identity (workload/design/size), best fps over the thread
 *       points, frame cycles, and an optional label (the CI commit).
 *       A snapshot with a "sequence" object (perf_render frames=N)
 *       appends a second line whose workload is "<wl>-seq<N>" — the
 *       sequence throughput forms its own trajectory.
 *
 *   perf_history check <BENCH_PERF.json> <history.jsonl>
 *                      [band=0.5] [min_history=3]
 *       Compare the snapshot's best fps against the median best fps
 *       of matching history entries (same workload, design and
 *       resolution). Exits 1 when fps < median * (1 - band). With
 *       fewer than min_history matching entries the check passes
 *       trivially — the trajectory is still warming up. The sequence
 *       bucket, when present, is checked the same way against its own
 *       "<wl>-seq<N>" history.
 *
 * The band is deliberately wide by default (50%): shared CI runners
 * are noisy, and the gate exists to catch order-of-magnitude
 * regressions (an accidentally-hot profiler path, a quadratic loop),
 * not 5% jitter. Determinism regressions are caught separately by the
 * bench's own bit-identity gate.
 *
 * The parser accepts exactly the JSON our JsonWriter emits (objects,
 * arrays, strings, numbers, true/false/null); wall_phase*_sec may be
 * null (render_threads=0 runs in older snapshots) and is simply
 * ignored here.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------- JSON

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }

    const JsonValue *find(const std::string &key) const
    {
        auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }

    double num(const std::string &key, double fallback = 0.0) const
    {
        const JsonValue *v = find(key);
        return v != nullptr && v->kind == Kind::Number ? v->number
                                                       : fallback;
    }

    std::string str(const std::string &key) const
    {
        const JsonValue *v = find(key);
        return v != nullptr && v->kind == Kind::String ? v->string
                                                       : std::string();
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool parse(JsonValue &out)
    {
        bool ok = value(out);
        skipWs();
        return ok && pos_ == text_.size();
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool literal(const char *word)
    {
        size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool value(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        char c = text_[pos_];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.string);
        }
        if (c == 't' || c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = c == 't';
            return literal(c == 't' ? "true" : "false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        }
        return number(out);
    }

    bool number(JsonValue &out)
    {
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin)
            return false;
        out.kind = JsonValue::Kind::Number;
        out.number = v;
        pos_ += size_t(end - begin);
        return true;
    }

    bool string(std::string &out)
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            char esc = text_[pos_++];
            switch (esc) {
            case 'n':
                out += '\n';
                break;
            case 't':
                out += '\t';
                break;
            case 'u':
                // Our writer only escapes ASCII control characters;
                // keep the replacement simple.
                pos_ += 4;
                out += '?';
                break;
            default:
                out += esc;
            }
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return false;
            JsonValue v;
            if (!value(v))
                return false;
            out.object.emplace(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return false;
        }
    }

    bool array(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!value(v))
                return false;
            out.array.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return false;
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

// ------------------------------------------------------------- summary

/** One history line: the identity + headline numbers of a snapshot. */
struct Summary
{
    std::string workload;
    std::string design;
    unsigned width = 0;
    unsigned height = 0;
    double bestFps = 0.0;
    double frameCycles = 0.0;
    std::string label;

    bool sameBench(const Summary &other) const
    {
        return workload == other.workload && design == other.design &&
               width == other.width && height == other.height;
    }
};

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
summarize(const JsonValue &perf, Summary &out)
{
    // v2 adds record_bytes_decoded per run and a sampler field, v3 an
    // optional "sequence" object; the headline numbers this tool
    // tracks are identical across all three, so old history lines
    // remain comparable across the schema bumps.
    const std::string schema = perf.str("schema");
    if (schema != "texpim-perf-v1" && schema != "texpim-perf-v2" &&
        schema != "texpim-perf-v3") {
        std::fprintf(stderr,
                     "perf_history: not a texpim-perf-v1/v2/v3 file\n");
        return false;
    }
    out.workload = perf.str("workload");
    out.design = perf.str("design");
    out.width = unsigned(perf.num("width"));
    out.height = unsigned(perf.num("height"));
    out.frameCycles = perf.num("frame_cycles");
    const JsonValue *runs = perf.find("runs");
    if (runs == nullptr || runs->array.empty()) {
        std::fprintf(stderr, "perf_history: snapshot has no runs\n");
        return false;
    }
    for (const JsonValue &run : runs->array)
        out.bestFps = std::max(out.bestFps, run.num("fps"));
    if (!(out.bestFps > 0.0)) {
        std::fprintf(stderr, "perf_history: no positive fps in runs\n");
        return false;
    }
    return true;
}

/**
 * Every trackable bucket in a snapshot: the single-frame summary,
 * plus — when the snapshot has a "sequence" object (frames=N was
 * passed to perf_render) — a second bucket keyed "<wl>-seq<N>" with
 * the best sequence fps over the pipeline-depth points. Keying the
 * sequence bucket into the workload string keeps the history-line
 * format and the matching logic unchanged; old tools just see another
 * workload.
 */
bool
summarizeAll(const JsonValue &perf, std::vector<Summary> &out)
{
    Summary base;
    if (!summarize(perf, base))
        return false;
    out.push_back(base);
    const JsonValue *seq = perf.find("sequence");
    if (seq == nullptr)
        return true;
    Summary s = base;
    unsigned frames = unsigned(seq->num("frames"));
    s.workload += "-seq" + std::to_string(frames);
    s.frameCycles = seq->num("frame_cycles");
    s.bestFps = 0.0;
    const JsonValue *runs = seq->find("runs");
    if (runs == nullptr || runs->array.empty()) {
        std::fprintf(stderr,
                     "perf_history: sequence object has no runs\n");
        return false;
    }
    for (const JsonValue &run : runs->array)
        s.bestFps = std::max(s.bestFps, run.num("fps"));
    if (!(s.bestFps > 0.0)) {
        std::fprintf(stderr,
                     "perf_history: no positive fps in sequence runs\n");
        return false;
    }
    out.push_back(std::move(s));
    return true;
}

bool
parseHistoryLine(const std::string &line, Summary &out)
{
    JsonValue v;
    if (!JsonParser(line).parse(v) ||
        v.kind != JsonValue::Kind::Object)
        return false;
    out.workload = v.str("workload");
    out.design = v.str("design");
    out.width = unsigned(v.num("width"));
    out.height = unsigned(v.num("height"));
    out.bestFps = v.num("best_fps");
    out.frameCycles = v.num("frame_cycles");
    out.label = v.str("label");
    return out.bestFps > 0.0;
}

std::vector<Summary>
loadHistory(const std::string &path)
{
    std::vector<Summary> out;
    std::ifstream in(path);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        Summary s;
        if (parseHistoryLine(line, s))
            out.push_back(std::move(s));
        else
            std::fprintf(stderr,
                         "perf_history: %s:%u: skipping malformed line\n",
                         path.c_str(), lineno);
    }
    return out;
}

std::string
escapeJson(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

const char *
argValue(const char *arg, const char *key)
{
    size_t n = std::strlen(key);
    return std::strncmp(arg, key, n) == 0 && arg[n] == '=' ? arg + n + 1
                                                           : nullptr;
}

int
cmdAppend(const std::string &perf_path, const std::string &history_path,
          const std::string &label)
{
    std::string text;
    if (!readFile(perf_path, text)) {
        std::fprintf(stderr, "perf_history: cannot read %s\n",
                     perf_path.c_str());
        return 2;
    }
    JsonValue perf;
    if (!JsonParser(text).parse(perf)) {
        std::fprintf(stderr, "perf_history: cannot parse %s\n",
                     perf_path.c_str());
        return 2;
    }
    std::vector<Summary> buckets;
    if (!summarizeAll(perf, buckets))
        return 2;

    std::ofstream out(history_path, std::ios::app);
    if (!out) {
        std::fprintf(stderr, "perf_history: cannot open %s\n",
                     history_path.c_str());
        return 2;
    }
    for (const Summary &s : buckets) {
        char line[512];
        std::snprintf(line, sizeof line,
                      "{\"workload\":\"%s\",\"design\":\"%s\","
                      "\"width\":%u,\"height\":%u,\"best_fps\":%.6g,"
                      "\"frame_cycles\":%.17g,\"label\":\"%s\"}",
                      escapeJson(s.workload).c_str(),
                      escapeJson(s.design).c_str(), s.width, s.height,
                      s.bestFps, s.frameCycles,
                      escapeJson(label).c_str());
        out << line << '\n';
        std::printf(
            "perf_history: appended %s (%s %ux%u, %.2f fps) to %s\n",
            s.design.c_str(), s.workload.c_str(), s.width, s.height,
            s.bestFps, history_path.c_str());
    }
    return 0;
}

int
cmdCheck(const std::string &perf_path, const std::string &history_path,
         double band, unsigned min_history)
{
    std::string text;
    if (!readFile(perf_path, text)) {
        std::fprintf(stderr, "perf_history: cannot read %s\n",
                     perf_path.c_str());
        return 2;
    }
    JsonValue perf;
    if (!JsonParser(text).parse(perf)) {
        std::fprintf(stderr, "perf_history: cannot parse %s\n",
                     perf_path.c_str());
        return 2;
    }
    std::vector<Summary> buckets;
    if (!summarizeAll(perf, buckets))
        return 2;

    std::vector<Summary> history = loadHistory(history_path);
    int rc = 0;
    for (const Summary &now : buckets) {
        std::vector<double> fps;
        for (const Summary &s : history)
            if (s.sameBench(now))
                fps.push_back(s.bestFps);

        if (fps.size() < min_history) {
            std::printf("perf_history: %s: only %zu matching history "
                        "entries (< %u) — check passes trivially\n",
                        now.workload.c_str(), fps.size(), min_history);
            continue;
        }

        std::sort(fps.begin(), fps.end());
        double median = fps.size() % 2 == 1
                            ? fps[fps.size() / 2]
                            : 0.5 * (fps[fps.size() / 2 - 1] +
                                     fps[fps.size() / 2]);
        double floor = median * (1.0 - band);
        std::printf("perf_history: %s: %.2f fps now, median %.2f over "
                    "%zu entries, floor %.2f (band %.0f%%)\n",
                    now.workload.c_str(), now.bestFps, median,
                    fps.size(), floor, band * 100.0);
        if (now.bestFps < floor) {
            std::fprintf(
                stderr,
                "perf_history: REGRESSION — %s %.2f fps is below the "
                "%.2f fps floor (median %.2f, band %.0f%%)\n",
                now.workload.c_str(), now.bestFps, floor, median,
                band * 100.0);
            rc = 1;
        }
    }
    if (rc == 0)
        std::printf("perf_history: OK\n");
    return rc;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: perf_history append <BENCH_PERF.json> <history.jsonl> "
        "[label=...]\n"
        "       perf_history check  <BENCH_PERF.json> <history.jsonl> "
        "[band=0.5] [min_history=3]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    std::string cmd = argv[1];
    std::string perf_path = argv[2];
    std::string history_path = argv[3];

    if (cmd == "append") {
        std::string label;
        for (int i = 4; i < argc; ++i)
            if (const char *v = argValue(argv[i], "label"))
                label = v;
            else
                return usage();
        return cmdAppend(perf_path, history_path, label);
    }
    if (cmd == "check") {
        double band = 0.5;
        unsigned min_history = 3;
        for (int i = 4; i < argc; ++i) {
            if (const char *v = argValue(argv[i], "band"))
                band = std::atof(v);
            else if (const char *v = argValue(argv[i], "min_history"))
                min_history = unsigned(std::atoi(v));
            else
                return usage();
        }
        return cmdCheck(perf_path, history_path, band, min_history);
    }
    return usage();
}
