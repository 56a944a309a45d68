#include "dcfg/dcfg.hh"

#include <algorithm>

#include "util/logging.hh"

namespace looppoint {

// Out of line on purpose: a new edge is rare, and keeping the vector
// growth code out of countEdge() lets its scan inline into onBlock().
[[gnu::noinline]] static void
addEdge(std::vector<DcfgEdge> &succs, BlockId from, BlockId to)
{
    succs.push_back({from, to, 1});
}

static void
countEdge(std::vector<std::vector<DcfgEdge>> &table, BlockId from,
          BlockId to)
{
    for (DcfgEdge &e : table[from]) {
        if (e.to == to) {
            ++e.count;
            return;
        }
    }
    addEdge(table[from], from, to);
}

static std::vector<DcfgEdge>
sortedEdges(const std::vector<std::vector<DcfgEdge>> &table)
{
    std::vector<DcfgEdge> edges;
    for (const auto &succs : table)
        edges.insert(edges.end(), succs.begin(), succs.end());
    std::sort(edges.begin(), edges.end(),
              [](const DcfgEdge &a, const DcfgEdge &b) {
                  return a.from != b.from ? a.from < b.from : a.to < b.to;
              });
    return edges;
}

DcfgBuilder::DcfgBuilder(const Program &prog_, uint32_t num_threads)
    : prog(&prog_), lastBlock(num_threads, kInvalidBlock),
      lastMainBlock(num_threads, kInvalidBlock),
      edgeCounts(prog_.numBlocks()), summaryCounts(prog_.numBlocks()),
      execCounts(prog_.numBlocks(), 0)
{}

void
DcfgBuilder::onBlock(uint32_t tid, BlockId block,
                     const ExecutionEngine &engine)
{
    (void)engine;
    ++execCounts[block];
    BlockId prev = lastBlock[tid];
    if (prev != kInvalidBlock)
        countEdge(edgeCounts, prev, block);
    lastBlock[tid] = block;

    // Call-return summarization: two consecutively executed blocks of
    // the same main-image routine form a summary edge even when
    // library code (lock stubs, chunk dispatch, barriers) ran in
    // between. Loop analysis runs on these edges, mirroring how the
    // Pin DCFG library collapses calls inside a routine's subgraph.
    if (prog->inMainImage(block)) {
        BlockId prev_main = lastMainBlock[tid];
        if (prev_main != kInvalidBlock &&
            prog->blocks[prev_main].routine ==
                prog->blocks[block].routine)
            countEdge(summaryCounts, prev_main, block);
        lastMainBlock[tid] = block;
    }
}

Dcfg
DcfgBuilder::build() const
{
    return Dcfg(*prog, sortedEdges(edgeCounts),
                sortedEdges(summaryCounts), execCounts);
}

Dcfg::Dcfg(const Program &prog_, std::vector<DcfgEdge> edges,
           std::vector<DcfgEdge> summary_edges,
           std::vector<uint64_t> block_execs)
    : prog(&prog_), edgeList(std::move(edges)),
      summaryList(std::move(summary_edges)),
      execCounts(std::move(block_execs))
{
    LP_ASSERT(execCounts.size() == prog->numBlocks());
    analyze();
}

namespace {

/**
 * Per-routine dominator analysis scratch. Implements the classic
 * iterative algorithm (Cooper/Harvey/Kennedy) on the executed subgraph
 * of one routine.
 */
struct RoutineGraph
{
    std::vector<BlockId> nodes;             ///< executed routine blocks
    std::unordered_map<BlockId, int> index; ///< block -> local index
    std::vector<std::vector<int>> succs;
    std::vector<std::vector<int>> preds;
    std::vector<int> rpo;      ///< reverse post-order (local indices)
    std::vector<int> rpoNum;   ///< local index -> rpo position
    std::vector<int> idom;     ///< local index -> idom local index
};

void
computeRpo(RoutineGraph &g, int entry)
{
    std::vector<char> seen(g.nodes.size(), 0);
    std::vector<int> post;
    // Iterative DFS.
    std::vector<std::pair<int, size_t>> stack;
    stack.push_back({entry, 0});
    seen[entry] = 1;
    while (!stack.empty()) {
        auto &[n, i] = stack.back();
        if (i < g.succs[n].size()) {
            int s = g.succs[n][i++];
            if (!seen[s]) {
                seen[s] = 1;
                stack.push_back({s, 0});
            }
        } else {
            post.push_back(n);
            stack.pop_back();
        }
    }
    g.rpo.assign(post.rbegin(), post.rend());
    g.rpoNum.assign(g.nodes.size(), -1);
    for (size_t i = 0; i < g.rpo.size(); ++i)
        g.rpoNum[g.rpo[i]] = static_cast<int>(i);
}

int
intersect(const RoutineGraph &g, int a, int b)
{
    while (a != b) {
        while (g.rpoNum[a] > g.rpoNum[b])
            a = g.idom[a];
        while (g.rpoNum[b] > g.rpoNum[a])
            b = g.idom[b];
    }
    return a;
}

void
computeDominators(RoutineGraph &g, int entry)
{
    g.idom.assign(g.nodes.size(), -1);
    g.idom[entry] = entry;
    bool changed = true;
    while (changed) {
        changed = false;
        for (int n : g.rpo) {
            if (n == entry)
                continue;
            int new_idom = -1;
            for (int p : g.preds[n]) {
                if (g.idom[p] == -1)
                    continue; // unprocessed or unreachable
                new_idom = (new_idom == -1) ? p
                                            : intersect(g, new_idom, p);
            }
            if (new_idom != -1 && g.idom[n] != new_idom) {
                g.idom[n] = new_idom;
                changed = true;
            }
        }
    }
}

/** Does `a` dominate `b`? (walk up from b; entry's idom is itself) */
bool
dominatesNode(const RoutineGraph &g, int a, int b, int entry)
{
    int cur = b;
    for (;;) {
        if (cur == a)
            return true;
        if (cur == entry || g.idom[cur] == -1)
            return false;
        cur = g.idom[cur];
    }
}

} // namespace

void
Dcfg::analyze()
{
    // Per-node adjacency restricted to intra-routine edges.
    for (uint32_t r = 0; r < prog->routines.size(); ++r) {
        const Routine &routine = prog->routines[r];
        RoutineGraph g;
        for (BlockId b : routine.blocks) {
            if (execCounts[b] == 0)
                continue;
            g.index[b] = static_cast<int>(g.nodes.size());
            g.nodes.push_back(b);
        }
        if (g.nodes.empty())
            continue;
        auto entry_it = g.index.find(routine.entry);
        if (entry_it == g.index.end())
            continue; // routine entry never executed
        int entry = entry_it->second;

        g.succs.resize(g.nodes.size());
        g.preds.resize(g.nodes.size());
        std::vector<const DcfgEdge *> local_edges;
        auto add_edges = [&](const std::vector<DcfgEdge> &list) {
            for (const DcfgEdge &e : list) {
                auto fi = g.index.find(e.from);
                auto ti = g.index.find(e.to);
                if (fi == g.index.end() || ti == g.index.end())
                    continue;
                g.succs[fi->second].push_back(ti->second);
                g.preds[ti->second].push_back(fi->second);
                local_edges.push_back(&e);
            }
        };
        if (routine.image == ImageId::Main) {
            // Summary edges collapse library calls; they subsume all
            // intra-routine raw edges of main-image routines.
            add_edges(summaryList);
        } else {
            add_edges(edgeList);
        }

        computeRpo(g, entry);
        computeDominators(g, entry);

        // Back edges -> natural loops; merge bodies per header.
        std::unordered_map<int, DcfgLoop> loops_by_header;
        for (const DcfgEdge *e : local_edges) {
            int t = g.index[e->from];
            int h = g.index[e->to];
            if (g.rpoNum[t] == -1 || g.rpoNum[h] == -1)
                continue; // unreachable from routine entry
            if (!dominatesNode(g, h, t, entry))
                continue;
            DcfgLoop &loop = loops_by_header[h];
            if (loop.header == kInvalidBlock) {
                loop.header = e->to;
                loop.headerExecs = execCounts[e->to];
                loop.image = prog->blocks[e->to].image;
                loop.routine = r;
            }
            loop.backEdgeCount += e->count;
            // Natural-loop body: reverse reachability from t up to h.
            std::vector<char> in_loop(g.nodes.size(), 0);
            in_loop[h] = 1;
            std::vector<int> work;
            if (!in_loop[t]) {
                in_loop[t] = 1;
                work.push_back(t);
            }
            while (!work.empty()) {
                int n = work.back();
                work.pop_back();
                for (int p : g.preds[n]) {
                    if (!in_loop[p] && g.rpoNum[p] != -1) {
                        in_loop[p] = 1;
                        work.push_back(p);
                    }
                }
            }
            for (size_t i = 0; i < g.nodes.size(); ++i) {
                if (!in_loop[i])
                    continue;
                BlockId bid = g.nodes[i];
                if (std::find(loop.body.begin(), loop.body.end(), bid) ==
                    loop.body.end())
                    loop.body.push_back(bid);
            }
        }

        for (auto &[h, loop] : loops_by_header) {
            (void)h;
            loop.entries = loop.headerExecs >= loop.backEdgeCount
                               ? loop.headerExecs - loop.backEdgeCount
                               : 0;
            std::sort(loop.body.begin(), loop.body.end());
            headerIndex[loop.header] = loopList.size();
            loopList.push_back(std::move(loop));
        }
    }

    std::sort(loopList.begin(), loopList.end(),
              [&](const DcfgLoop &a, const DcfgLoop &b) {
                  return prog->blocks[a.header].pc <
                         prog->blocks[b.header].pc;
              });
    headerIndex.clear();
    for (size_t i = 0; i < loopList.size(); ++i)
        headerIndex[loopList[i].header] = i;
}

std::vector<BlockId>
Dcfg::mainImageLoopHeaders() const
{
    std::vector<BlockId> headers;
    for (const auto &loop : loopList)
        if (loop.image == ImageId::Main)
            headers.push_back(loop.header);
    std::sort(headers.begin(), headers.end(),
              [&](BlockId a, BlockId b) {
                  return prog->blocks[a].pc < prog->blocks[b].pc;
              });
    return headers;
}

namespace {

void
predictInnerLoopHeaders(const std::vector<BodyItem> &items,
                        std::vector<BlockId> &out)
{
    for (const BodyItem &item : items) {
        // A back edge needs a second trip in some execution.
        if (item.kind == BodyItem::Kind::Loop &&
            item.trips + item.tripJitter >= 2)
            out.push_back(item.blocks[0]);
        predictInnerLoopHeaders(item.children, out);
    }
}

} // namespace

std::vector<BlockId>
predictMainImageLoopHeaders(const Program &prog)
{
    std::vector<char> runs(prog.kernels.size(), 0);
    std::vector<char> back_to_back(prog.kernels.size(), 0);
    for (size_t i = 0; i < prog.runList.size(); ++i) {
        runs[prog.runList[i]] = 1;
        if (i > 0 && prog.runList[i] == prog.runList[i - 1])
            back_to_back[prog.runList[i]] = 1;
    }
    std::vector<BlockId> headers;
    for (size_t k = 0; k < prog.kernels.size(); ++k) {
        if (!runs[k])
            continue;
        const LoweredKernel &kernel = prog.kernels[k];
        headers.push_back(kernel.workerHeader);
        if (back_to_back[k])
            headers.push_back(kernel.entryBlock);
        predictInnerLoopHeaders(kernel.body, headers);
    }
    std::sort(headers.begin(), headers.end(),
              [&](BlockId a, BlockId b) {
                  return prog.blocks[a].pc < prog.blocks[b].pc;
              });
    return headers;
}

bool
Dcfg::isLoopHeader(BlockId id) const
{
    return headerIndex.count(id) > 0;
}

const DcfgLoop &
Dcfg::loopAt(BlockId id) const
{
    auto it = headerIndex.find(id);
    if (it == headerIndex.end())
        fatal("block %u does not head a DCFG loop", id);
    return loopList[it->second];
}

} // namespace looppoint
