"""Chat clients, prompt construction, answer policies, and the ablation grid."""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from matproc import chat as ch
from matproc import prompts as pr
from matproc import retrieval as rt
from matproc import runner as rn
from matproc import scoring as sc
from matproc.canon import canon_label
from matproc.errors import (
    ClientTimeout,
    InvalidGridAxis,
    InvalidParams,
    MissingContext,
)
from matproc.memory import build_memory, linearize_process
from matproc.provgraph import SynthParams, generate_synthetic_corpus
from matproc.retrieval import RetrievalWeights, retrieve, query_from_item
from matproc.scoring import (
    OptionScores,
    fuse_scores,
    score_options_neural,
    score_options_symbolic,
)

from helpers import (LoopbackEndpoint, Reply, chain_graph, closed_port_url, compiled,
                     count_thread_pools)


@functools.lru_cache(maxsize=None)
def corpus():
    return tuple(generate_synthetic_corpus(SynthParams(n_records=40), seed=7))


@functools.lru_cache(maxsize=None)
def bench():
    from matproc.taskgen import generate_benchmark

    items, _ = generate_benchmark(list(corpus()), seed=3)
    return tuple(items)


@functools.lru_cache(maxsize=None)
def mem():
    return build_memory(list(corpus()), split_id="runner-tests")


def per_task_sample(n):
    """The first ``n`` items of every task, task by task."""
    by_task = {}
    for item in bench():
        by_task.setdefault(item.task, []).append(item)
    assert len(by_task) == 7
    return [item for task in sorted(by_task) for item in by_task[task][:n]]


def scored(values, item_id="g:A1_route_retrieval:0"):
    return OptionScores(item_id=item_id, fused=list(values))


# --- mock chat client -------------------------------------------------------------------


def test_mock_rules_take_priority():
    client = ch.MockChatClient(rules=[(r"magnetite", "Answer: C")])
    exchange = client.complete(
        [{"role": "user", "content": "route for magnetite?\nRespond with a single option letter"}],
        max_new_tokens=16,
    )
    assert exchange.response_text == "Answer: C"
    assert client.calls == 1


def test_mock_follows_strongest_evidence():
    body = (
        "Compatibility evidence:\n"
        "A) mill -> dry [compatibility 0.120]\n"
        "B) mill -> sinter [compatibility 0.940]\n"
        "C) dry -> mill [compatibility 0.500]\n"
        "Respond with a single option letter and nothing else."
    )
    client = ch.MockChatClient()
    exchange = client.complete([{"role": "user", "content": body}], max_new_tokens=48)
    assert exchange.response_text == "Answer: B"


def test_mock_evidence_following_can_be_disabled():
    body = (
        "A) x [compatibility 0.900]\n"
        "B) y [compatibility 0.100]\n"
        "Respond with a single option letter"
    )
    client = ch.MockChatClient(follow_evidence=False)
    assert client.complete([{"role": "user", "content": body}], 16).response_text == "Answer: A"


def test_mock_plan_prompts_get_a_plan_not_an_answer():
    client = ch.MockChatClient()
    exchange = client.complete(
        [{"role": "user", "content": f"stuff\n{pr.PLAN_INSTRUCTION}"}],
        max_new_tokens=96,
    )
    assert "Answer:" not in exchange.response_text
    assert "precedent" in exchange.response_text


def test_the_mock_reads_the_prompts_that_prompts_renders():
    from matproc.taskgen import generate_benchmark

    items, _ = generate_benchmark(list(corpus()), k_options=8, seed=3)
    item = next(it for it in items if len(it.options) == 8)
    precedents = retrieve(query_from_item(item), mem(), k=2)
    scores = scored([0.5] * 7 + [0.9], item.item_id)  # H, the last of eight, is strongest
    client = ch.MockChatClient()
    answer = pr.build_prompt(item, "answer", precedents=precedents, scores=scores, memory=mem())
    assert client.complete(answer, 48).response_text == "Answer: H"
    assert pr.parse_answer("Answer: H", len(item.options)) == 7
    plan = pr.build_prompt(item, "plan", precedents=precedents, scores=scores, memory=mem())
    reply = client.complete(plan, 96).response_text
    assert "Answer:" not in reply and "precedent" in reply


def test_mock_default_is_answer_a():
    client = ch.MockChatClient()
    assert client.complete([{"role": "user", "content": "anything"}], 16).response_text == "Answer: A"


def test_exchange_round_trip():
    exchange = ch.ChatExchange(
        messages=[{"role": "user", "content": "q"}],
        max_new_tokens=48,
        temperature=0.0,
        response_text="Answer: B",
        finish_reason="stop",
    )
    assert ch.ChatExchange.from_dict(exchange.to_dict()) == exchange


# --- HTTP chat client -------------------------------------------------------------------


MESSAGES = [{"role": "user", "content": "q"}]


def test_http_client_posts_wire_contract():
    # the 0.3 s handler needs the passed 9 s timeout: a timeout under 0.3 s fails
    reply = Reply({"text": "Answer: D", "finish_reason": "stop"}, delay=0.3)
    with LoopbackEndpoint(reply) as server:
        client = ch.HttpChatClient(server.url + "/chat", token="tok", timeout=9.0)
        exchange = client.complete(MESSAGES, max_new_tokens=48, temperature=0.0)
    assert exchange.response_text == "Answer: D"
    assert exchange.finish_reason == "stop"
    [(path, headers, body)] = server.received
    assert path == "/v1/chat"
    assert body == {
        "messages": [{"role": "user", "content": "q"}],
        "max_new_tokens": 48,
        "temperature": 0.0,
    }
    assert headers["Authorization"] == "Bearer tok"
    assert headers["Content-Type"] == "application/json"


def test_http_client_defaults_finish_reason_and_sends_no_authorization_without_token():
    with LoopbackEndpoint({"text": "Answer: A"}) as server:
        exchange = ch.HttpChatClient(server.url).complete(MESSAGES, max_new_tokens=16)
    assert exchange.finish_reason == "stop"
    assert "Authorization" not in server.received[0][1]


def test_http_client_retries_then_times_out():
    with LoopbackEndpoint(Reply({"error": "boom"}, status=500)) as server:
        client = ch.HttpChatClient(server.url, retries=2)
        with pytest.raises(ClientTimeout):
            client.complete(MESSAGES, max_new_tokens=16)
    assert len(server.received) == 3


def test_http_client_connection_error_times_out():
    client = ch.HttpChatClient(closed_port_url(), retries=1)
    with pytest.raises(ClientTimeout):
        client.complete(MESSAGES, max_new_tokens=16)


def test_http_client_retries_a_server_error_and_then_succeeds():
    replies = (Reply({"error": "busy"}, status=500), {"text": "Answer: B"})
    with LoopbackEndpoint(*replies) as server:
        exchange = ch.HttpChatClient(server.url).complete(MESSAGES, max_new_tokens=16)
    assert exchange.response_text == "Answer: B"
    assert len(server.received) == 2


def test_http_client_rejects_malformed_body():
    with LoopbackEndpoint({"unexpected": True}) as server:
        client = ch.HttpChatClient(server.url, retries=0)
        with pytest.raises(ClientTimeout):
            client.complete(MESSAGES, max_new_tokens=16)


@pytest.mark.parametrize(
    "reply",
    [
        Reply({"text": 5}),
        Reply({"text": None}),
        Reply({"text": "Answer: A", "finish_reason": 3}),
        Reply({"text": "Answer: A", "finish_reason": None}),
        Reply([1]),
        Reply("Answer: A"),
        Reply(b"Answer: A"),  # not JSON
        Reply(b'{"text": "Answer: A"'),
        Reply(b"not http\r\n\r\n", status=None),  # http.client.BadStatusLine
    ],
    ids=[
        "int-text", "null-text", "int-finish", "null-finish", "list-body", "string-body",
        "not-json", "truncated", "bad-status-line",
    ],
)
def test_http_client_times_out_on_every_malformed_body(reply):
    with LoopbackEndpoint(reply) as server:
        with pytest.raises(ClientTimeout):
            ch.HttpChatClient(server.url).complete(MESSAGES, max_new_tokens=16)
    assert len(server.received) == 3


def test_http_client_refuses_a_url_that_is_not_http():
    with pytest.raises(ClientTimeout):
        ch.HttpChatClient('data:,{"text": "Answer: A"}').complete(MESSAGES, max_new_tokens=16)


def test_http_client_gives_up_at_its_timeout():
    with LoopbackEndpoint(Reply({"text": "Answer: A"}, delay=5.0)) as server:
        started = time.perf_counter()
        with pytest.raises(ClientTimeout):
            ch.HttpChatClient(server.url, timeout=0.2, retries=0).complete(
                MESSAGES, max_new_tokens=16
            )
        assert time.perf_counter() - started < 4.0


def test_get_chat_client_env_selection(monkeypatch):
    monkeypatch.delenv(ch.CHAT_URL_VAR, raising=False)
    assert isinstance(ch.get_chat_client(), ch.MockChatClient)
    monkeypatch.setenv(ch.CHAT_URL_VAR, "http://chat.local/v1")
    monkeypatch.setenv(ch.CHAT_TOKEN_VAR, "tok")
    client = ch.get_chat_client()
    assert isinstance(client, ch.HttpChatClient)
    assert client.url == "http://chat.local/v1"
    assert client.token == "tok"


# --- prompt construction ----------------------------------------------------------------


def first_item(task):
    return next(it for it in bench() if it.task == task)


def test_zero_shot_prompt_is_question_options_instruction():
    item = first_item("A3_next_activity")
    messages = pr.build_prompt(item, "zero_shot")
    assert [m["role"] for m in messages] == ["system", "user"]
    assert messages[0]["content"] == pr.SYSTEM_TEXT
    body = messages[1]["content"]
    for i, option in enumerate(item.options):
        assert f"{pr.OPTION_LETTERS[i]}) {option}" in body
    assert body.endswith(pr.ANSWER_INSTRUCTION)
    assert "compatibility" not in body
    assert "precedent" not in body.lower()


def test_question_text_covers_every_task():
    for task in (
        "A1_route_retrieval",
        "A2_missing_step",
        "A3_next_activity",
        "B1_condition_prediction",
        "B2_full_condition_set",
        "C1_tool_selection",
        "D_process_ordering",
    ):
        assert pr.question_text(first_item(task))


def test_a2_question_shows_mask_placeholder():
    item = first_item("A2_missing_step")
    text = pr.question_text(item)
    assert "[?]" in text
    # The mask renders only in bracketed form, never as a bare route element.
    route_part = text.split("masked: ", 1)[1].split(". Which", 1)[0]
    assert all(x != "?" for x in route_part.split(" -> "))


def test_few_shot_prompt_counts_exemplars():
    item = first_item("A1_route_retrieval")
    exemplars = [it for it in bench() if it.item_id != item.item_id][:3]
    body = pr.build_prompt(item, "few_shot", exemplars=exemplars)[1]["content"]
    assert body.count("Example ") == 3
    for ex in exemplars:
        assert f"Answer: {pr.OPTION_LETTERS[ex.gold_index]}" in body
    with pytest.raises(MissingContext):
        pr.build_prompt(item, "few_shot", exemplars=exemplars[:2])


def test_rag_prompt_lists_linearized_precedents():
    item = first_item("B1_condition_prediction")
    precedents = retrieve(query_from_item(item), mem(), k=3)
    body = pr.build_prompt(item, "rag", precedents=precedents, memory=mem())[1]["content"]
    for rank, p in enumerate(precedents, start=1):
        assert f"{rank}. {linearize_process(mem(), p.graph_id)}" in body
    with pytest.raises(MissingContext):
        pr.build_prompt(item, "rag", precedents=precedents[:2], memory=mem())
    with pytest.raises(MissingContext):
        pr.build_prompt(item, "rag", precedents=precedents)


def test_graphrag_prompt_renders_neighbourhoods():
    item = first_item("C1_tool_selection")
    gids = [p.graph_id for p in retrieve(query_from_item(item), mem(), k=3)]
    body = pr.build_prompt(item, "graphrag", memory=mem(), graph_ids=gids)[1]["content"]
    for gid in gids:
        assert f"process {gid}:" in body
    assert "step 1 " in body
    with pytest.raises(MissingContext):
        pr.build_prompt(item, "graphrag", memory=mem(), graph_ids=gids[:1])


def test_two_hop_neighbourhood_adds_precedence_clauses():
    g = compiled(chain_graph(["mix", "mill", "sinter"], record_id="nb"))
    memory = build_memory([g])
    one = pr.neighbourhood_block(memory, ["nb"], hops=1)
    two = pr.neighbourhood_block(memory, ["nb"], hops=2)
    assert "after" not in one and "before" not in one
    assert "after mix" in two and "before sinter" in two


def test_plan_and_answer_prompts_carry_evidence_lines():
    item = first_item("A1_route_retrieval")
    precedents = retrieve(query_from_item(item), mem(), k=3)
    scores = scored([0.1, 0.9, 0.3, 0.2], item_id=item.item_id)
    plan = pr.build_prompt(item, "plan", precedents=precedents, scores=scores, memory=mem())
    body = plan[1]["content"]
    assert body.endswith(pr.PLAN_INSTRUCTION)
    assert f"B) {item.options[1]} [compatibility 0.900]" in body
    # The mock's evidence scanner reads exactly what the template renders.
    assert pr.EVIDENCE_LINE.search(body).group(1) == "A"
    answer = pr.build_prompt(
        item, "answer", precedents=precedents, scores=scores, memory=mem(),
        plan_text="lean on precedent two",
    )
    assert "Plan:\nlean on precedent two\n\n" in answer[1]["content"]
    with pytest.raises(MissingContext):
        pr.build_prompt(item, "answer", precedents=precedents, scores=scores)
    with pytest.raises(MissingContext):
        pr.build_prompt(item, "nonsense_mode")


def test_mock_answers_prompt_evidence_end_to_end():
    item = first_item("A3_next_activity")
    precedents = retrieve(query_from_item(item), mem(), k=3)
    scores = scored([0.2, 0.1, 0.8, 0.4], item_id=item.item_id)
    messages = pr.build_prompt(
        item, "answer", precedents=precedents, scores=scores, memory=mem()
    )
    response = ch.MockChatClient().complete(messages, max_new_tokens=48)
    assert pr.parse_answer(response.response_text, len(item.options)) == 2


def test_parse_answer_variants():
    assert pr.parse_answer("Answer: B", 4) == 1
    assert pr.parse_answer("I would pick C) here", 4) == 2
    assert pr.parse_answer("D", 4) == 3
    assert pr.parse_answer("D", 2) is None          # beyond the option count
    assert pr.parse_answer("choose a sinter step", 4) is None  # lowercase prose
    assert pr.parse_answer("Banana", 4) is None      # letter embedded in a word
    assert pr.parse_answer("", 4) is None


# --- policy configuration ---------------------------------------------------------------


def test_policy_config_validation():
    with pytest.raises(InvalidParams):
        rn.PolicyConfig(policy="galaxy_brain")
    with pytest.raises(InvalidParams):
        rn.PolicyConfig(lam=1.5)
    with pytest.raises(InvalidParams):
        rn.PolicyConfig(top_k=0)
    with pytest.raises(InvalidParams):
        rn.PolicyConfig(budgets={"planning": 96, "answer": 0, "baseline": 16})
    with pytest.raises(InvalidParams):
        rn.PolicyConfig(rag_k=0)


def test_policy_config_round_trip():
    config = rn.PolicyConfig(
        policy="provmind_llm",
        lam=0.7,
        top_k=4,
        weights=RetrievalWeights(0.5, 0.25, 0.25),
        planning=False,
        budgets={"planning": 64, "answer": 32, "baseline": 8},
        seed=11,
    )
    clone = rn.PolicyConfig.from_dict(config.to_dict())
    assert clone == config


def test_default_budgets():
    assert rn.DEFAULT_BUDGETS == {"planning": 96, "answer": 48, "baseline": 16}
    assert rn.PolicyConfig().budgets == rn.DEFAULT_BUDGETS


# --- score-argmax and diagnostic policies -------------------------------------------------


def test_gold_oracle_is_perfect():
    report, rows = rn.evaluate(list(bench()[:50]), config=rn.PolicyConfig(policy="gold_oracle"))
    assert report.accuracy == 1.0
    assert all(row["correct"] for row in rows)


def test_uniform_random_sits_near_chance_and_reproduces():
    items = list(bench())
    config = rn.PolicyConfig(policy="uniform_random", seed=5)
    report_a, rows_a = rn.evaluate(items, config=config)
    report_b, rows_b = rn.evaluate(items, config=config)
    assert rows_a == rows_b
    assert 0.18 <= report_a.accuracy <= 0.32
    _, rows_shifted = rn.evaluate(items, config=rn.PolicyConfig(policy="uniform_random", seed=6))
    assert [r["answer_index"] for r in rows_a] != [r["answer_index"] for r in rows_shifted]


def test_argmax_hybrid_matches_direct_scoring():
    items = list(bench()[:12])
    config = rn.PolicyConfig(policy="argmax_hybrid")
    _, rows = rn.evaluate(items, mem(), config)
    for item, row in zip(items, rows):
        precedents = retrieve(query_from_item(item), mem(), config.weights, config.top_k)
        sym = score_options_symbolic(item, precedents, mem(), config.scoring)
        neu = score_options_neural(item, precedents, mem(), config.scoring)
        fused = fuse_scores(sym, neu, 0.5)
        assert row["answer_index"] == rn.answer_argmax(fused)
        assert row["scores"]["fused"] == pytest.approx(fused.fused)
        assert row["precedents"] == [p.graph_id for p in precedents]


def test_argmax_symbolic_beats_chance_by_a_wide_margin():
    items = list(bench()[:150])
    symbolic, _ = rn.evaluate(items, mem(), rn.PolicyConfig(policy="argmax_symbolic"))
    chance, _ = rn.evaluate(items, config=rn.PolicyConfig(policy="uniform_random"))
    assert symbolic.accuracy >= chance.accuracy + 0.20


def test_argmax_policies_need_memory():
    with pytest.raises(InvalidParams):
        rn.evaluate(list(bench()[:5]), config=rn.PolicyConfig(policy="argmax_hybrid"))


def test_report_arithmetic_recomputes_from_rows():
    items = list(bench()[:60])
    report, rows = rn.evaluate(items, mem(), rn.PolicyConfig(policy="argmax_symbolic"))
    by_task = {}
    for row in rows:
        bucket = by_task.setdefault(row["task"], [0, 0])
        bucket[0] += int(row["correct"])
        bucket[1] += 1
    for task, (correct, total) in by_task.items():
        assert report.per_task[task].correct == correct
        assert report.per_task[task].total == total
        assert report.per_task[task].accuracy == pytest.approx(correct / total)
    assert report.overall.total == len(items)
    assert report.overall.correct == sum(int(r["correct"]) for r in rows)
    assert report.split_id == "runner-tests"


def test_evaluate_is_reproducible_and_parallel_safe():
    items = list(bench()[:40])
    config = rn.PolicyConfig(policy="argmax_hybrid")
    _, rows_a = rn.evaluate(items, mem(), config)
    _, rows_b = rn.evaluate(items, mem(), config)
    _, rows_p = rn.evaluate(items, mem(), config, jobs=3)
    assert rows_a == rows_b == rows_p


class _DelegatingClient:
    """Answers as the mock client does, but is not one, so runs thread it."""

    def __init__(self):
        self.mock = ch.MockChatClient()

    def complete(self, messages, max_new_tokens, temperature=0.0):
        return self.mock.complete(messages, max_new_tokens, temperature)


def test_threaded_chat_bound_rows_equal_in_process_rows_over_several_blocks(monkeypatch):
    items = list(bench()[: 3 * rn._BLOCK_ITEMS + 5])  # three full blocks and a partial one
    configs = [rn.PolicyConfig(policy="provmind_llm"), rn.PolicyConfig(policy="rag"),
               rn.PolicyConfig(policy="argmax_hybrid")]
    pools = count_thread_pools(monkeypatch)

    def rows(jobs):
        answers = rn.answer_items(items, mem(), configs, client=_DelegatingClient(), jobs=jobs)
        return list(answers)

    in_process = rows(1)
    assert pools == []
    threaded = rows(4)
    assert pools == [4]  # the pool answered the threaded rows
    assert [[row["item_id"] for row in item_rows] for item_rows in threaded] == [
        [item.item_id] * len(configs) for item in items]
    assert threaded == in_process
    assert all(row["precedents"] for item_rows in threaded for row in item_rows)


def test_the_mock_client_answers_in_process_whatever_jobs_says(monkeypatch):
    items = list(bench()[: 2 * rn._BLOCK_ITEMS + 3])
    configs = [rn.PolicyConfig(policy="provmind_llm"), rn.PolicyConfig(policy="rag"),
               rn.PolicyConfig(policy="argmax_hybrid")]
    pools = count_thread_pools(monkeypatch)
    in_process = list(rn.answer_items(items, mem(), configs, client=ch.MockChatClient()))
    assert list(rn.answer_items(items, mem(), configs, client=ch.MockChatClient(), jobs=4)) == in_process
    assert list(rn.answer_items(items, mem(), configs, jobs=4)) == in_process  # the default mock
    assert list(rn.answer_items(items, mem(), configs, client=_DelegatingClient())) == in_process
    assert pools == []


def test_report_round_trip_excludes_wall_clock():
    report, _ = rn.evaluate(list(bench()[:10]), mem(), rn.PolicyConfig(policy="argmax_symbolic"))
    d = report.to_dict()
    assert "wall_clock_s" not in d
    clone = rn.EvalReport.from_dict(d)
    assert clone.per_task == report.per_task
    assert clone.overall == report.overall
    assert clone.wall_clock_s == 0.0


# --- LLM-mediated policy ------------------------------------------------------------------


def test_provmind_follows_evidence_to_the_fused_argmax():
    items = list(bench()[:40])
    config = rn.PolicyConfig(policy="provmind_llm")
    _, llm_rows = rn.evaluate(items, mem(), config)
    _, argmax_rows = rn.evaluate(items, mem(), rn.PolicyConfig(policy="argmax_hybrid"))
    for item, lrow, arow in zip(items, llm_rows, argmax_rows):
        rendered = sorted((float(f"{x:.3f}") for x in arow["scores"]["fused"]), reverse=True)
        if len(rendered) > 1 and rendered[0] == rendered[1]:
            continue  # a 3-decimal tie in the rendered evidence is genuinely ambiguous
        assert lrow["answer_index"] == arow["answer_index"], item.item_id


def test_provmind_records_plan_and_answer_budgets():
    items = list(bench()[:4])
    _, rows = rn.evaluate(items, mem(), rn.PolicyConfig(policy="provmind_llm"))
    for row in rows:
        modes = [(e["mode"], e["max_new_tokens"]) for e in row["exchanges"]]
        assert modes == [("plan", 96), ("answer", 48)]
        assert all(e["temperature"] == 0.0 for e in row["exchanges"])
        assert all(
            isinstance(e["prompt_sha"], str) and len(e["prompt_sha"]) > 8
            for e in row["exchanges"]
        )


def test_planning_off_skips_the_plan_call():
    items = list(bench()[:4])
    client = ch.MockChatClient()
    _, rows = rn.evaluate(
        items, mem(), rn.PolicyConfig(policy="provmind_llm", planning=False), client=client
    )
    assert all([e["mode"] for e in row["exchanges"]] == ["answer"] for row in rows)
    assert client.calls == len(items)


def test_plan_text_is_embedded_in_the_answer_prompt():
    items = list(bench()[:2])
    config = rn.PolicyConfig(policy="provmind_llm", log_full_prompts=True)
    client = ch.MockChatClient(rules=[(r"Write a brief plan", "weigh precedent one heavily")])
    _, rows = rn.evaluate(items, mem(), config, client=client)
    for row in rows:
        answer_prompt = row["exchanges"][1]["messages"][1]["content"]
        assert "Plan:\nweigh precedent one heavily\n\n" in answer_prompt


def test_unparseable_response_falls_back_to_symbolic():
    items = list(bench()[:10])
    client = ch.MockChatClient(
        rules=[(r"Respond with a single option letter", "cannot decide, sorry")],
        follow_evidence=False,
    )
    _, rows = rn.evaluate(items, mem(), rn.PolicyConfig(policy="provmind_llm"), client=client)
    _, sym_rows = rn.evaluate(items, mem(), rn.PolicyConfig(policy="argmax_symbolic"))
    for row, sym_row in zip(rows, sym_rows):
        assert row["fallback_used"] is True
        assert "unparseable_response" in row["flags"]
        assert row["answer_index"] == sym_row["answer_index"]


def test_fallback_off_leaves_unparseable_items_unanswered():
    items = list(bench()[:6])
    client = ch.MockChatClient(
        rules=[(r"Respond with a single option letter", "no comment")],
        follow_evidence=False,
    )
    report, rows = rn.evaluate(
        items, mem(), rn.PolicyConfig(policy="provmind_llm", fallback=False), client=client
    )
    assert all(row["answer_index"] is None for row in rows)
    assert report.accuracy == 0.0


class _TimeoutClient:
    def complete(self, messages, max_new_tokens, temperature=0.0):
        raise ClientTimeout("stuck")


def test_timeouts_flag_and_fall_back():
    items = list(bench()[:5])
    _, rows = rn.evaluate(
        items, mem(), rn.PolicyConfig(policy="provmind_llm"), client=_TimeoutClient()
    )
    _, sym_rows = rn.evaluate(items, mem(), rn.PolicyConfig(policy="argmax_symbolic"))
    for row, sym_row in zip(rows, sym_rows):
        assert "plan_timeout" in row["flags"] and "answer_timeout" in row["flags"]
        assert row["fallback_used"] is True
        assert row["answer_index"] == sym_row["answer_index"]


# --- prompting baselines ------------------------------------------------------------------


def test_zero_shot_uses_baseline_budget():
    items = list(bench()[:5])
    _, rows = rn.evaluate(items, config=rn.PolicyConfig(policy="zero_shot"))
    for row in rows:
        assert [(e["mode"], e["max_new_tokens"]) for e in row["exchanges"]] == [
            ("zero_shot", 16)
        ]


def test_few_shot_samples_task_matched_exemplars():
    items = [it for it in bench() if it.task == "A3_next_activity"][:5]
    train = list(bench()[300:])
    config = rn.PolicyConfig(policy="few_shot", log_full_prompts=True)
    _, rows = rn.evaluate(items, config=config, train_items=train)
    train_a3 = [it for it in train if it.task == "A3_next_activity"]
    expected = rn._sample_exemplars(train, "A3_next_activity", config)
    assert len(expected) == 3
    assert all(ex in train_a3 for ex in expected)
    body = rows[0]["exchanges"][0]["messages"][1]["content"]
    for ex in expected:
        assert pr.question_text(ex) in body
    # Resampling under the same seed is stable.
    assert rn._sample_exemplars(train, "A3_next_activity", config) == expected


def test_few_shot_requires_train_items():
    with pytest.raises(InvalidParams):
        rn.evaluate(list(bench()[:5]), config=rn.PolicyConfig(policy="few_shot"))


def test_exemplar_pool_must_not_overlap_scored_partitions():
    items = list(bench()[:20])
    with pytest.raises(InvalidParams):
        rn.evaluate(
            items,
            config=rn.PolicyConfig(policy="few_shot"),
            train_items=list(bench()[:40]),
            partition="test",
        )
    # The same overlap is tolerated outside dev/test scoring.
    report, _ = rn.evaluate(
        items, config=rn.PolicyConfig(policy="few_shot"), train_items=list(bench()[:40])
    )
    assert report.overall.total == len(items)


def test_rag_and_graphrag_cite_their_precedents():
    items = list(bench()[:6])
    _, rag_rows = rn.evaluate(items, mem(), rn.PolicyConfig(policy="rag"))
    for item, row in zip(items, rag_rows):
        expected = retrieve(query_from_item(item), mem(), RetrievalWeights(), 3)
        assert row["precedents"] == [p.graph_id for p in expected]
    _, graph_rows = rn.evaluate(items, mem(), rn.PolicyConfig(policy="graphrag"))
    structure_only = RetrievalWeights.for_views(["structure"])
    for item, row in zip(items, graph_rows):
        expected = retrieve(query_from_item(item), mem(), structure_only, 3)
        assert row["precedents"] == [p.graph_id for p in expected]


# --- external predictions -----------------------------------------------------------------


def score_predictions(items, predictions):
    return rn.evaluate(items, config=rn.PolicyConfig(policy="external_predictions"),
                       predictions=predictions)


def test_external_predictions_scores_a_gold_mapping():
    items = list(bench()[:30])
    predictions = {it.item_id: it.gold_index for it in items}
    report, rows = score_predictions(items, predictions)
    assert report.accuracy == 1.0
    assert all(not row["flags"] for row in rows)


def test_external_predictions_flags_gaps_and_range_errors():
    items = list(bench()[:4])
    predictions = {
        items[0].item_id: items[0].gold_index,
        items[1].item_id: 99,
    }
    report, rows = score_predictions(items, predictions)
    assert rows[0]["correct"] is True
    assert "prediction_out_of_range" in rows[1]["flags"] and not rows[1]["correct"]
    assert "missing_prediction" in rows[2]["flags"] and not rows[2]["correct"]
    assert report.overall.correct == 1


def test_external_predictions_require_a_mapping():
    with pytest.raises(InvalidParams):
        rn.evaluate(list(bench()[:3]), config=rn.PolicyConfig(policy="external_predictions"))


# --- ablation grid --------------------------------------------------------------------------


def test_ablation_grid_shape():
    rows = rn.ablation_grid(rn.PolicyConfig())
    assert len(rows) == 25
    blocks = {}
    for block, _, _ in rows:
        blocks[block] = blocks.get(block, 0) + 1
    assert blocks == {"module": 4, "scoring": 5, "retrieval": 7, "fusion": 4, "top_k": 5}
    labels = [(b, l) for b, l, _ in rows]
    assert len(set(labels)) == 25
    assert ("module", "symbolic_scoring_off") in labels
    assert ("scoring", "lambda=0.7") in labels
    assert ("retrieval", "structure+heuristic") in labels
    assert ("fusion", "heuristic_heavy") in labels
    assert ("top_k", "k=16") in labels


def test_ablation_grid_axis_selection():
    rows = rn.ablation_grid(rn.PolicyConfig(), axes=["top_k"])
    assert [label for _, label, _ in rows] == ["k=1", "k=2", "k=4", "k=8", "k=16"]
    assert [config.top_k for _, _, config in rows] == [1, 2, 4, 8, 16]
    with pytest.raises(InvalidGridAxis):
        rn.ablation_grid(rn.PolicyConfig(), axes=["top_k", "mystery"])


def test_symbolic_scoring_off_is_a_neural_only_llm_run():
    rows = rn.ablation_grid(rn.PolicyConfig(), axes=["module"])
    by_label = {label: config for _, label, config in rows}
    assert by_label["full"].policy == "provmind_llm"
    assert by_label["symbolic_scoring_off"].lam == 0.0
    assert by_label["planning_off"].planning is False
    assert by_label["fallback_off"].fallback is False


def test_run_ablation_produces_reports_per_row():
    items = list(bench()[:24])
    results = rn.run_ablation(items, mem(), axes=["scoring"])
    assert len(results) == 5
    for result in results:
        assert result.report.overall.total == len(items)
    by_label = {r.label: r.report.accuracy for r in results}
    symbolic, _ = rn.evaluate(items, mem(), rn.PolicyConfig(policy="argmax_symbolic"))
    assert by_label["lambda=1.0"] == pytest.approx(symbolic.accuracy)


def test_ablation_grid_needs_an_axis():
    with pytest.raises(InvalidGridAxis, match="no ablation axis"):
        rn.ablation_grid(rn.PolicyConfig(), axes=[])


def test_every_grid_row_equals_a_fresh_evaluate_of_its_config():
    items = per_task_sample(2)
    grid = rn.ablation_grid(rn.PolicyConfig())
    per_item = list(rn.answer_items(items, mem(), [config for _, _, config in grid],
                                    client=ch.MockChatClient()))
    results = rn.run_ablation(items, mem(), client=ch.MockChatClient())
    assert [(r.block, r.label) for r in results] == [(b, l) for b, l, _ in grid]
    for column, ((block, label, config), result) in enumerate(zip(grid, results)):
        report, rows = rn.evaluate(items, mem(), config, client=ch.MockChatClient())
        # answers, precedents and every score float, compared with ==
        assert [item_rows[column] for item_rows in per_item] == rows, (block, label)
        assert result.report.to_dict() == report.to_dict(), (block, label)


def test_grid_embeds_and_matches_once_per_item(monkeypatch):
    items = per_task_sample(2)
    memory = mem()
    # structure rows embedded: every row of a batch, plus every per-graph
    # call made outside one (a batch embeds its small graphs one by one)
    calls = {"struct_rows": 0, "struct_batches": 0, "match_steps": 0}
    batching = []
    per_graph, batched = rt.embed_structure, rt.StructureEncoder.embed

    def embed_structure(*args, **kwargs):
        calls["struct_rows"] += not batching
        return per_graph(*args, **kwargs)

    def encoder_embed(self, graphs):
        batching.append(True)
        try:
            out = batched(self, graphs)
        finally:
            batching.pop()
        calls["struct_rows"] += len(out)
        calls["struct_batches"] += bool(len(out))
        return out

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["match_steps"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rt, "embed_structure", embed_structure)
    monkeypatch.setattr(rt.StructureEncoder, "embed", encoder_embed)
    # the symbolic lane calls match_steps through its own module's binding
    monkeypatch.setattr(sc, "match_steps", counted(sc.match_steps))
    rn.run_ablation(items, memory)
    step_tasks = ("B1_condition_prediction", "B2_full_condition_set", "C1_tool_selection")
    assert calls["struct_rows"] == len(items)
    assert calls["struct_batches"] == -(-len(items) // rn._BLOCK_ITEMS)  # one per block
    assert calls["match_steps"] == sum(item.task in step_tasks for item in items)


def test_a_run_embeds_and_projects_each_distinct_label_once(monkeypatch):
    items, memory = per_task_sample(6), mem()
    batches = []  # the labels of each batch the run's encoder embeds and projects
    embed, add_labels = rt.BuiltinTextEmbedder.embed, rt.StructureEncoder._add_labels
    adding = []

    def recorded_embed(self, texts):
        if adding:
            batches.append([text for text in texts if text])  # "" pads a short batch
        return embed(self, texts)

    def recorded_add_labels(self, labels):
        adding.append(True)
        try:
            return add_labels(self, labels)
        finally:
            adding.pop()

    monkeypatch.setattr(rt.BuiltinTextEmbedder, "embed", recorded_embed)
    monkeypatch.setattr(rt.StructureEncoder, "_add_labels", recorded_add_labels)
    list(rn.answer_items(items, memory, [rn.PolicyConfig(policy="argmax_hybrid")]))
    stacked = [g for g in (query_from_item(item).context_graph for item in items)
               if len(g.entities()) + len(g.activities) >= rt._MIN_STACKED_ROWS]
    labels = {canon_label(n.label) for g in stacked for n in [*g.entities(), *g.activities]}
    embedded = [label for batch in batches for label in batch]
    assert sorted(embedded) == sorted(labels)  # each distinct label once in the run
    assert len(batches) <= -(-len(items) // rn._BLOCK_ITEMS)  # at most one batch per block


def test_a_block_embeds_its_option_texts_with_its_query_texts(monkeypatch):
    items, memory = per_task_sample(3), mem()
    texts = []  # the texts of each call outside structure embedding
    embed, encode, per_graph = rt.BuiltinTextEmbedder.embed, rt.StructureEncoder.embed, rt.embed_structure
    encoding = []

    def recorded_embed(self, batch):
        if not encoding:
            texts.append(list(batch))
        return embed(self, batch)

    def marked(fn):
        def wrapper(*args, **kwargs):
            encoding.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                encoding.pop()
        return wrapper

    monkeypatch.setattr(rt.BuiltinTextEmbedder, "embed", recorded_embed)
    monkeypatch.setattr(rt.StructureEncoder, "embed", marked(encode))
    monkeypatch.setattr(rt, "embed_structure", marked(per_graph))
    config = rn.PolicyConfig(policy="argmax_neural")
    rows = [row for (row,) in rn.answer_items(items, memory, [config])]
    monkeypatch.undo()
    blocks = [items[start : start + rn._BLOCK_ITEMS] for start in range(0, len(items), rn._BLOCK_ITEMS)]
    assert texts == [[*(query_from_item(item).text for item in block),
                      *(text for item in block for text in sc.option_texts(item))]
                     for block in blocks]  # one call per block: its queries', then their options'
    for item, row in zip(items, rows):  # as an item scored alone scores
        precedents = retrieve(query_from_item(item), memory, config.weights, config.top_k)
        alone = sc.score_options_neural(item, precedents, memory)
        assert row["scores"]["raw_neu"] == alone.raw_neu  # == on every float
    for block in blocks:
        for query, item in zip(rt.queries_from_items(block, [sc.option_texts(it) for it in block]),
                               block):
            given = sc.ItemInputs(item, memory, query).option_vectors()
            assert np.array_equal(given, sc.ItemInputs(item, memory).option_vectors())


@pytest.mark.parametrize("config, neural", [
    (rn.PolicyConfig(policy="argmax_symbolic"), False),
    (rn.PolicyConfig(policy="argmax_hybrid", lam=1.0), False),
    (rn.PolicyConfig(policy="argmax_hybrid"), True),
    (rn.PolicyConfig(policy="argmax_neural", lam=1.0), True),
    (rn.PolicyConfig(policy="rag"), False),
])
def test_a_block_holds_option_texts_only_when_a_config_scores_the_neural_lane(
        monkeypatch, config, neural):
    items, memory = per_task_sample(1), mem()
    given = []
    build = rn.queries_from_items

    def recorded(block, option_texts=None, encoder=None):
        given.append(option_texts)
        return build(block, option_texts, encoder)

    monkeypatch.setattr(rn, "queries_from_items", recorded)
    scored = []
    neural_lane = rn.score_options_neural
    monkeypatch.setattr(rn, "score_options_neural",
                        lambda *a, **k: scored.append(True) or neural_lane(*a, **k))
    list(rn.answer_items(items, memory, [config], client=ch.MockChatClient()))
    assert given and all((texts is not None) is neural for texts in given)
    assert bool(scored) is neural


def test_retrieval_axis_covers_all_view_subsets():
    rows = rn.ablation_grid(rn.PolicyConfig(), axes=["retrieval"])
    weights = {label: config.weights for _, label, config in rows}
    assert weights["text_only"].alpha == 1.0
    assert weights["structure_only"].beta == 1.0
    assert weights["heuristic_only"].gamma == 1.0
    assert weights["full"] == RetrievalWeights()
    pair = weights["text+structure"]
    assert pair.gamma == 0.0 and pair.alpha == pytest.approx(0.4 / 0.7)


# --- rendering -------------------------------------------------------------------------------


def test_render_report_layout():
    report, _ = rn.evaluate(list(bench()[:20]), mem(), rn.PolicyConfig(policy="argmax_symbolic"))
    text = rn.render_report(report)
    assert "policy: argmax_symbolic" in text
    assert "overall" in text
    assert "wall clock:" in text
    assert f"{report.overall.correct}/{report.overall.total}" in text


def test_render_ablation_table_layout():
    items = list(bench()[:12])
    results = rn.run_ablation(items, mem(), axes=["module"])
    text = rn.render_ablation_table(results)
    assert "block" in text and "variant" in text
    for label in ("full", "planning_off", "fallback_off", "symbolic_scoring_off"):
        assert label in text
