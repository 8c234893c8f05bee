/**
 * @file
 * The traced run's span recorder (see bench.hh).
 */

#include <cstdio>

#include "bench.hh"

namespace perfbench
{

namespace
{

std::string
layerOf(const char *name)
{
    std::string s(name);
    return s.substr(0, s.find('.'));
}

} // namespace

thread_local std::vector<Tracer::Open> Tracer::stack_;
thread_local uint32_t Tracer::thread_ = 0;

uint32_t
Tracer::threadId()
{
    if (thread_ == 0)
        thread_ = ++nextThread_; // called under mutex_
    return thread_;
}

int32_t
Tracer::store(const char *name, uint32_t request, int32_t parent,
              int64_t start)
{
    ++total_;
    if (spans_.size() >= kMaxStoredSpans)
        return -1;
    auto [it, fresh] = ids_.emplace(name, names_.size());
    if (fresh)
        names_.emplace_back(name);
    Span s;
    s.name = it->second;
    s.parent = parent;
    s.request = request;
    s.thread = threadId();
    s.start = start;
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
}

void
Tracer::open(const char *name, uint32_t request)
{
    Open o;
    o.layer = layerOf(name);
    o.start = nowNs();
    int32_t parent = stack_.empty() ? -1 : stack_.back().stored;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        o.stored = store(name, request, parent, o.start);
    }
    stack_.push_back(std::move(o));
}

void
Tracer::close()
{
    int64_t end = nowNs();
    Open o = std::move(stack_.back());
    stack_.pop_back();
    int64_t dur = end - o.start;
    if (!stack_.empty())
        stack_.back().childNs += dur;
    std::lock_guard<std::mutex> lock(mutex_);
    selfNs_[o.layer] += static_cast<double>(dur - o.childNs);
    if (o.stored >= 0)
        spans_[static_cast<size_t>(o.stored)].end = end;
}

void
Tracer::record(const char *name, int64_t start, int64_t end,
               uint32_t request, int64_t selfNs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    int32_t idx = store(name, request, -1, start);
    if (idx >= 0)
        spans_[static_cast<size_t>(idx)].end = end;
    selfNs_[layerOf(name)] += static_cast<double>(selfNs);
}

std::map<std::string, double>
Tracer::layerSelfNs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return selfNs_;
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%zu,\"parent\":%d,\"request\":%u}}\n",
                     i ? "," : "", names_[s.name].c_str(), s.thread,
                     (s.start - t0) / 1e3, (s.end - s.start) / 1e3, i,
                     s.parent, s.request);
    }
    std::fprintf(f, "],\"otherData\":{\"spans_total\":%zu,"
                    "\"spans_stored\":%zu}}\n",
                 total_, spans_.size());
    return std::fclose(f) == 0;
}

} // namespace perfbench
